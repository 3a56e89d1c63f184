package core

import (
	"fmt"

	"repro/internal/feedback"
	"repro/internal/ktrace"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/spectrum"
	"repro/internal/supervisor"
)

// MultiTuner manages a multi-threaded legacy application: all of its
// tasks share one CBS server (scheduled inside it by fixed priority),
// one analyser window per task estimates the per-thread activation
// periods, and a single feedback law sizes the shared budget.
//
// This implements the paper's Sec. 6 future-work item ("optimal ways
// to deal with multi-threaded applications") with the design its
// Sec. 3.2 analysis suggests: the reservation period is set to the
// smallest detected thread period (the rate-monotonic-dominant one),
// and the budget follows the aggregate consumed-time sensor. As
// Figure 2 predicts, this configuration pays a bandwidth premium over
// per-thread reservations — quantified in this package's tests.
type MultiTuner struct {
	cfg    Config
	sd     *sched.Scheduler
	sup    *supervisor.Supervisor
	client *supervisor.Client
	tracer *ktrace.Buffer
	tasks  []*sched.Task
	server *sched.Server

	windows map[int]*spectrum.Window // by PID
	periods map[int]*threadVerdict   // by PID
	ctrl    feedback.Controller

	period      simtime.Duration
	frozen      bool // per-thread periods locked in
	holdLastW   simtime.Duration
	holdLastExh int
	holdGrowths int
	snapshots   []Snapshot
	running     bool
	tickFn      func()
	tickEv      sim.Timer
	tickAt      simtime.Time

	// OnTick, if non-nil, observes every activation. It belongs to
	// the end user; embedding layers must use BusTick.
	OnTick func(Snapshot)
	// BusTick, if non-nil, also observes every activation; reserved
	// for an embedding system's observation bus.
	BusTick func(Snapshot)
}

// threadVerdict tracks the per-thread period estimate until it is
// stable enough to freeze. Once the shared budget starts slicing jobs
// across server periods, the trace shows the *server's* grid, so the
// verdicts must be taken from the generous hold phase and then locked.
type threadVerdict struct {
	period simtime.Duration
	stable int // consecutive ticks the verdict stayed within tolerance
}

// NewMulti creates a MultiTuner for the given tasks; prios[i] is the
// fixed priority of tasks[i] inside the shared server (lower value =
// higher priority; rate-monotonic assignment is the sensible choice).
// The tasks must not be attached to servers already.
func NewMulti(sd *sched.Scheduler, sup *supervisor.Supervisor, tracer *ktrace.Buffer,
	tasks []*sched.Task, prios []int, cfg Config) (*MultiTuner, error) {

	if len(tasks) == 0 {
		return nil, fmt.Errorf("core: MultiTuner needs at least one task")
	}
	if len(prios) != len(tasks) {
		return nil, fmt.Errorf("core: %d priorities for %d tasks", len(prios), len(tasks))
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Controller == nil {
		cfg.Controller = feedback.NewLFSPP()
	}
	if cfg.MinEvents <= 0 {
		cfg.MinEvents = 50
	}
	m := &MultiTuner{
		cfg:     cfg,
		sd:      sd,
		sup:     sup,
		tracer:  tracer,
		tasks:   tasks,
		windows: make(map[int]*spectrum.Window, len(tasks)),
		periods: make(map[int]*threadVerdict, len(tasks)),
		ctrl:    cfg.Controller,
		period:  cfg.InitialPeriod,
	}
	// Register with the supervisor before creating the server: a
	// rejected registration must not leave an orphan reservation on
	// the scheduler.
	if sup != nil {
		client, ok := sup.Register("multituner:"+tasks[0].Name(), cfg.MinBandwidth)
		if !ok {
			return nil, fmt.Errorf("core: supervisor rejected registration")
		}
		m.client = client
	}
	m.server = sd.NewServer("multituner:"+tasks[0].Name(), cfg.InitialBudget, cfg.InitialPeriod, cfg.Mode)
	for i, t := range tasks {
		t.AttachTo(m.server, prios[i])
		if cfg.RateDetection {
			m.windows[t.PID()] = spectrum.NewWindow(cfg.Band, cfg.Horizon)
		}
	}
	return m, nil
}

// Server returns the shared CBS server.
func (m *MultiTuner) Server() *sched.Server { return m.server }

// Tasks returns the managed tasks.
func (m *MultiTuner) Tasks() []*sched.Task { return m.tasks }

// Rehome points the tuner at a new core after its shared server has
// been migrated there, mirroring AutoTuner.Rehome: it registers a
// client with the new core's supervisor under the configured bandwidth
// floor, releases the old core's claim, and re-submits the current
// reservation so the new supervisor's admission accounts for it. The
// per-thread period verdicts, analyser windows and controller history
// all survive — the application did not change, only where it runs.
// Rehome fails without side effects when the new supervisor rejects
// the registration, and smp.Machine.Move then carries the server back.
func (m *MultiTuner) Rehome(newSched *sched.Scheduler, newSup *supervisor.Supervisor) error {
	client, err := rehomeClient(m.server, "multituner:"+m.tasks[0].Name(), m.tasks[0].Name(),
		m.cfg.MinBandwidth, newSched, newSup, m.sup, m.client)
	if err != nil {
		return err
	}
	moveTick(m.sd.Engine(), newSched.Engine(), &m.tickEv, m.tickAt, m.tickFn)
	m.sd, m.sup, m.client = newSched, newSup, client
	return nil
}

// SetTracer repoints the tuner at another kernel trace buffer (see
// AutoTuner.SetTracer).
func (m *MultiTuner) SetTracer(b *ktrace.Buffer) { m.tracer = b }

// Period returns the current reservation period (the smallest detected
// thread period).
func (m *MultiTuner) Period() simtime.Duration { return m.period }

// ThreadPeriods returns the per-task period verdicts by PID.
func (m *MultiTuner) ThreadPeriods() map[int]simtime.Duration {
	out := make(map[int]simtime.Duration, len(m.periods))
	for pid, v := range m.periods {
		out[pid] = v.period
	}
	return out
}

// Frozen reports whether the per-thread periods have been locked in.
func (m *MultiTuner) Frozen() bool { return m.frozen }

// Snapshots returns the activation history.
func (m *MultiTuner) Snapshots() []Snapshot { return m.snapshots }

// Start schedules the periodic activations.
func (m *MultiTuner) Start() {
	if m.running {
		panic("core: MultiTuner started twice")
	}
	m.running = true
	m.tickFn = func() {
		m.tick()
		m.armTick()
	}
	m.armTick()
}

// armTick schedules the next activation one sampling period from now on
// the managed scheduler's current engine, remembering the instant so a
// cross-lane Rehome can re-arm it on the destination lane.
func (m *MultiTuner) armTick() {
	eng := m.sd.Engine()
	m.tickAt = eng.Now().Add(m.cfg.Sampling)
	m.tickEv = eng.At(m.tickAt, m.tickFn)
}

func (m *MultiTuner) tick() {
	now := m.sd.Engine().Now()

	// Bootstrap guard, before the analyser sees anything: evidence
	// collected while the shared server was exhausting its budget
	// shows the server's quantisation, not the threads' periods.
	const maxHoldGrowths = 10
	if m.cfg.RateDetection && !m.frozen && m.holdGrowths < maxHoldGrowths {
		st := m.server.Stats()
		exhausted := st.Exhaustions > m.holdLastExh
		m.holdLastExh = st.Exhaustions
		m.holdLastW = st.Consumed
		if exhausted {
			m.holdGrowths++
			if m.tracer != nil {
				for _, t := range m.tasks {
					m.tracer.DrainPID(t.PID())
				}
			}
			for _, w := range m.windows {
				w.Reset()
			}
			for pid := range m.periods {
				delete(m.periods, pid)
			}
			req := simtime.Duration(1.5 * float64(m.server.Budget()))
			if req > m.server.Period() {
				req = m.server.Period()
			}
			m.actuate(now, req)
			return
		}
	}

	// Per-thread detection runs only until the verdicts freeze: after
	// the budget tightens, slower threads' jobs get sliced across
	// server periods and their traces would re-imprint the server
	// grid. A verdict freezes when every thread's estimate has been
	// stable (within the period tolerance) for two consecutive ticks.
	if m.cfg.RateDetection && m.tracer != nil && !m.frozen {
		for _, t := range m.tasks {
			w := m.windows[t.PID()]
			if w == nil {
				continue
			}
			events := m.tracer.DrainPID(t.PID())
			w.Observe(now, ktrace.Timestamps(events))
			if w.Events() < m.cfg.MinEvents {
				continue
			}
			det := spectrum.Detect(w.Spectrum(), m.cfg.Detect)
			if !det.Periodic || det.Frequency <= 0 {
				continue
			}
			p := simtime.FromHertz(det.Frequency)
			v := m.periods[t.PID()]
			if v == nil {
				m.periods[t.PID()] = &threadVerdict{period: p}
				continue
			}
			if relDiff(p, v.period) <= m.cfg.PeriodTolerance {
				v.stable++
			} else {
				v.stable = 0
			}
			v.period = p
		}
		allStable := len(m.periods) == len(m.tasks)
		for _, v := range m.periods {
			if v.stable < 2 {
				allStable = false
			}
		}
		if allStable {
			minP := simtime.Duration(0)
			for _, v := range m.periods {
				if minP == 0 || v.period < minP {
					minP = v.period
				}
			}
			m.period = minP
			m.frozen = true
			m.ctrl.Reset()
		}
	}

	// Hold the reservation until every thread period is known: the
	// feedback law's per-period scaling is meaningless before that.
	if m.cfg.RateDetection && !m.frozen {
		m.actuate(now, m.server.Budget())
		return
	}

	srvStats := m.server.Stats()
	req := m.ctrl.Tick(feedback.Sample{
		Now:         now,
		Consumed:    srvStats.Consumed,
		Exhaustions: srvStats.Exhaustions,
		Period:      m.period,
		Sampling:    m.cfg.Sampling,
		Budget:      m.server.Budget(),
	})
	if req > m.period {
		req = m.period
	}
	if req <= 0 {
		req = simtime.Microsecond
	}
	m.actuate(now, req)
}

func (m *MultiTuner) actuate(now simtime.Time, req simtime.Duration) {
	granted := req
	if m.client != nil {
		granted = m.client.Request(req, m.period)
		if granted <= 0 {
			granted = simtime.Microsecond
		}
	}
	if granted != m.server.Budget() || m.period != m.server.Period() {
		m.server.SetParams(granted, m.period)
	}
	snap := Snapshot{
		At:        now,
		Period:    m.period,
		Requested: req,
		Granted:   granted,
		Bandwidth: m.server.Bandwidth(),
	}
	m.snapshots = append(m.snapshots, snap)
	if m.BusTick != nil {
		m.BusTick(snap)
	}
	if m.OnTick != nil {
		m.OnTick(snap)
	}
}
