// Package core implements the paper's headline contribution: the
// self-tuning scheduler of Figure 3. Each legacy task gets a task
// controller (AutoTuner) that
//
//  1. downloads the task's syscall timestamps from the kernel tracer,
//  2. feeds them to the period analyser to estimate the activation
//     period P,
//  3. samples the scheduler's consumed-CPU-time sensor and runs a
//     feedback controller (LFS++ by default) to compute a budget
//     request Q_req, and
//  4. submits (Q_req, P) to the supervisor, applying the granted
//     reservation to the task's CBS server.
//
// Everything is transparent to the application: no API calls, no
// instrumentation — exactly the paper's definition of support for
// legacy real-time applications.
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

// Config parameterises an AutoTuner.
type Config struct {
	// Sampling is the controller activation period S. The paper warns
	// against S = P (asynchronous sampling makes job-wise adaptation
	// unstable); several periods per activation is the intended use.
	Sampling simtime.Duration
	// Horizon is the observation window H fed to the period analyser.
	Horizon simtime.Duration
	// Band is the analysed frequency range.
	Band spectrum.Band
	// Detect parameterises the peak-detection heuristic.
	Detect spectrum.DetectConfig
	// Controller computes budget requests; nil selects LFS++ with the
	// paper's defaults.
	Controller feedback.Controller
	// RateDetection enables the period analyser. When false the
	// reservation period stays at InitialPeriod (the configuration the
	// paper uses to evaluate the feedback in isolation, Sec. 5.4).
	RateDetection bool
	// InitialBudget and InitialPeriod set the reservation before the
	// loop has learned anything. The default budget is deliberately
	// generous (25% of the period): an under-provisioned reservation
	// throttles the application before the analyser has seen it, and
	// the throttling itself imprints the server period onto the
	// syscall train — the analyser then locks onto the reservation
	// instead of the application, and the loop self-reinforces. A
	// generous start lets the first detection see the application's
	// own structure; the controller tightens the budget immediately
	// after.
	InitialBudget simtime.Duration
	InitialPeriod simtime.Duration
	// MinBandwidth is the guaranteed floor registered with the
	// supervisor.
	MinBandwidth float64
	// MinEvents is the number of traced events required before the
	// analyser's verdict is trusted.
	MinEvents int
	// PeriodTolerance is the relative period change that resets the
	// controller history (old samples were scaled by the old period).
	PeriodTolerance float64
	// Mode selects the CBS flavour of the managed server.
	Mode sched.Mode
}

// DefaultConfig returns the configuration used by the paper's
// complete-feedback experiments. The aperiodicity criterion is
// stricter than the analyser default: the tuner re-tests every 200ms
// forever, so its per-window false-positive probability must be far
// smaller than a one-shot analysis needs — and a genuinely periodic
// 2s window measures a peak-to-mean ratio an order of magnitude above
// this threshold anyway.
func DefaultConfig() Config {
	detect := spectrum.DefaultDetect
	detect.MinPeakToMean = 4.5
	return Config{
		Sampling:        200 * simtime.Millisecond,
		Horizon:         2 * simtime.Second,
		Band:            spectrum.DefaultBand,
		Detect:          detect,
		RateDetection:   true,
		InitialBudget:   10 * simtime.Millisecond,
		InitialPeriod:   40 * simtime.Millisecond,
		MinBandwidth:    0.01,
		MinEvents:       50,
		PeriodTolerance: 0.10,
		Mode:            sched.HardCBS,
	}
}

// Snapshot records the tuner state after one activation, the data
// behind Figures 13-14's "reserved fraction of CPU" curves.
type Snapshot struct {
	At        simtime.Time
	Period    simtime.Duration // current period estimate
	Requested simtime.Duration // budget requested from the supervisor
	Granted   simtime.Duration // budget actually applied
	Bandwidth float64          // granted / period
	Detected  float64          // last analyser verdict in Hz (0 = none)
	Events    int              // events inside the analyser window
}

// AutoTuner is the per-task controller of Figure 3.
type AutoTuner struct {
	cfg    Config
	sd     *sched.Scheduler
	sup    *supervisor.Supervisor
	client *supervisor.Client
	tracer *ktrace.Buffer
	task   *sched.Task
	server *sched.Server

	window *spectrum.Window
	ctrl   feedback.Controller

	period      simtime.Duration
	detected    float64
	snapshots   []Snapshot
	running     bool
	stopped     bool
	tickFn      func()
	tickEv      sim.Timer
	tickAt      simtime.Time
	holdLastW   simtime.Duration // consumed-time sensor during the hold phase
	holdLastExh int              // exhaustion counter during the hold phase
	holdGrowths int              // budget growths spent during the hold phase

	// Detection hysteresis: a period change is applied only after the
	// analyser repeats it, so one noisy verdict (common under heavy
	// contention, when a dilated trace briefly favours a harmonic)
	// cannot flap the reservation period and reset the controller.
	pendingPeriod simtime.Duration
	pendingCount  int

	// OnTick, if non-nil, observes every activation. It belongs to
	// the end user; embedding layers must use BusTick.
	OnTick func(Snapshot)
	// BusTick, if non-nil, also observes every activation. It is
	// reserved for the observation bus of an embedding system (the
	// selftune observer API), so user code assigning OnTick cannot
	// sever it.
	BusTick func(Snapshot)
}

// Validate checks the invariants New and NewMulti enforce on a
// configuration, letting callers fail before committing resources.
func (c Config) Validate() error {
	if c.Sampling <= 0 || c.Horizon <= 0 {
		return fmt.Errorf("core: sampling and horizon must be positive")
	}
	if c.InitialBudget <= 0 || c.InitialPeriod <= 0 || c.InitialBudget > c.InitialPeriod {
		return fmt.Errorf("core: invalid initial reservation Q=%v T=%v",
			c.InitialBudget, c.InitialPeriod)
	}
	return nil
}

// New creates an AutoTuner managing the given task: it builds the
// task's CBS server, attaches the task, points the tracer's PID filter
// at it and registers with the supervisor (which may be nil for
// unsupervised operation). The task must not be attached to a server
// already.
func New(sd *sched.Scheduler, sup *supervisor.Supervisor, tracer *ktrace.Buffer,
	task *sched.Task, cfg Config) (*AutoTuner, error) {

	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Controller == nil {
		cfg.Controller = feedback.NewLFSPP()
	}
	if cfg.MinEvents <= 0 {
		cfg.MinEvents = 50
	}
	if cfg.PeriodTolerance <= 0 {
		cfg.PeriodTolerance = 0.10
	}
	a := &AutoTuner{
		cfg:    cfg,
		sd:     sd,
		sup:    sup,
		tracer: tracer,
		task:   task,
		ctrl:   cfg.Controller,
		period: cfg.InitialPeriod,
	}
	// Register with the supervisor before creating the server: a
	// rejected registration must not leave an orphan reservation on
	// the scheduler.
	if sup != nil {
		client, ok := sup.Register("tuner:"+task.Name(), cfg.MinBandwidth)
		if !ok {
			return nil, fmt.Errorf("core: supervisor rejected registration of %s", task.Name())
		}
		a.client = client
	}
	a.server = sd.NewServer("tuner:"+task.Name(), cfg.InitialBudget, cfg.InitialPeriod, cfg.Mode)
	task.AttachTo(a.server, 0)
	if cfg.RateDetection {
		a.window = spectrum.NewWindow(cfg.Band, cfg.Horizon)
	}
	return a, nil
}

// Rehome points the tuner at a new core after its managed server has
// been moved there — it is the arrive step of smp.Machine.Move, which
// runs it once the server is adopted on the destination core, of the
// same machine or of another one: it registers a client
// with the new core's supervisor under the configured bandwidth floor,
// releases the old core's claim, and re-submits the current
// reservation so the new supervisor's admission accounts for it
// (applying any compression the new core's contention forces). The
// controller history, period estimate and analyser window all survive
// — the application did not change, only where it runs. Rehome fails
// without side effects when the new supervisor rejects the
// registration, and Move then carries the server back.
func (a *AutoTuner) Rehome(newSched *sched.Scheduler, newSup *supervisor.Supervisor) error {
	client, err := rehomeClient(a.server, "tuner:"+a.task.Name(), a.task.Name(),
		a.cfg.MinBandwidth, newSched, newSup, a.sup, a.client)
	if err != nil {
		return err
	}
	moveTick(a.sd.Engine(), newSched.Engine(), &a.tickEv, a.tickAt, a.tickFn)
	a.sd, a.sup, a.client = newSched, newSup, client
	return nil
}

// moveTick carries a tuner's pending activation across engine lanes: on
// a machine whose cores run on separate sim.Engine lanes, the tuner's
// self-rescheduling tick lives on the lane of the core it manages, so a
// cross-core Rehome must cancel it there and re-arm it — at the same
// instant — on the destination. On a shared-engine machine the two
// engines are identical and this is a no-op.
func moveTick(oldEng, newEng *sim.Engine, ev *sim.Timer, at simtime.Time, fn func()) {
	if oldEng == newEng || !ev.Pending() {
		return
	}
	oldEng.Cancel(*ev)
	*ev = newEng.At(at, fn)
}

// SetTracer repoints the tuner at another kernel trace buffer. On a
// per-core-tracer machine a migration moves the managed task's syscall
// stream to the destination core's buffer; the tuner must download its
// evidence from there.
func (a *AutoTuner) SetTracer(b *ktrace.Buffer) { a.tracer = b }

// rehomeClient is the supervisor-claim half of a tuner migration,
// shared by AutoTuner.Rehome and MultiTuner.Rehome: register with the
// new supervisor first (a rejection leaves the old claim untouched),
// release the old claim, and re-submit the server's current
// reservation so the new supervisor's admission accounts for it. The
// returned client replaces the tuner's old one.
func rehomeClient(server *sched.Server, clientName, taskName string, minBandwidth float64,
	newSched *sched.Scheduler, newSup *supervisor.Supervisor,
	oldSup *supervisor.Supervisor, oldClient *supervisor.Client) (*supervisor.Client, error) {

	if newSched == nil {
		return nil, fmt.Errorf("core: Rehome to a nil scheduler")
	}
	if !newSched.Owns(server) {
		return nil, fmt.Errorf("core: Rehome of %s before its server moved", taskName)
	}
	var client *supervisor.Client
	if newSup != nil {
		c, ok := newSup.Register(clientName, minBandwidth)
		if !ok {
			return nil, fmt.Errorf("core: new supervisor rejected registration of %s", taskName)
		}
		client = c
	}
	if oldClient != nil {
		oldClient.Release()
		oldSup.Unregister(oldClient)
	}
	if client != nil {
		granted := client.Request(server.Budget(), server.Period())
		if granted <= 0 {
			granted = simtime.Microsecond
		}
		if granted != server.Budget() {
			server.SetParams(granted, server.Period())
		}
	}
	return client, nil
}

// Task returns the managed task.
func (a *AutoTuner) Task() *sched.Task { return a.task }

// Server returns the managed CBS server.
func (a *AutoTuner) Server() *sched.Server { return a.server }

// Period returns the current period estimate.
func (a *AutoTuner) Period() simtime.Duration { return a.period }

// DetectedFrequency returns the analyser's last verdict in Hz
// (0 before the first confident detection).
func (a *AutoTuner) DetectedFrequency() float64 { return a.detected }

// Snapshots returns the activation history.
func (a *AutoTuner) Snapshots() []Snapshot { return a.snapshots }

// Start schedules the periodic controller activations. It must be
// called once, before running the engine.
func (a *AutoTuner) Start() {
	if a.running {
		panic("core: AutoTuner started twice")
	}
	a.running = true
	a.stopped = false
	a.tickFn = func() {
		if a.stopped {
			return
		}
		a.tick()
		a.armTick()
	}
	a.armTick()
}

// armTick schedules the next activation one sampling period from now on
// the managed scheduler's current engine, remembering the instant so a
// cross-lane Rehome can re-arm it on the destination lane.
func (a *AutoTuner) armTick() {
	eng := a.sd.Engine()
	a.tickAt = eng.Now().Add(a.cfg.Sampling)
	a.tickEv = eng.At(a.tickAt, a.tickFn)
}

// Stop cancels future activations. The task keeps running in its
// server with the last applied reservation and the supervisor claim
// stays in place (the bandwidth is still consumed); the system simply
// stops adapting. Stop is idempotent and the tuner can be started
// again later.
func (a *AutoTuner) Stop() {
	if !a.running || a.stopped {
		return
	}
	a.stopped = true
	a.running = false
}

// Retire stops the tuner for good and releases its supervisor claim,
// so the departed workload's bandwidth is no longer accounted against
// the core. Used on teardown (selftune.System.Despawn); unlike after a
// plain Stop, a retired tuner must not be started again — it no longer
// holds a claim to request through. Idempotent.
func (a *AutoTuner) Retire() {
	a.Stop()
	if a.client != nil {
		a.client.Release()
		a.sup.Unregister(a.client)
		a.client = nil
	}
}

// tick is one activation of the task controller: Figure 3's loop body.
func (a *AutoTuner) tick() {
	now := a.sd.Engine().Now()

	// Bootstrap guard: while no period has been detected yet, a server
	// that exhausted its budget during the sampling interval has been
	// dilating the application, and the trace collected meanwhile
	// shows the *server's* quantisation rather than the application's
	// period. Discard that evidence, grow the budget and try again —
	// before letting the analyser see any of it. After several growths
	// (e.g. when the supervisor caps the budget under contention) the
	// tuner accepts the imperfect evidence rather than holding forever.
	const maxHoldGrowths = 10
	if a.window != nil && a.detected == 0 && a.holdGrowths < maxHoldGrowths {
		st := a.server.Stats()
		exhausted := st.Exhaustions > a.holdLastExh
		a.holdLastExh = st.Exhaustions
		a.holdLastW = st.Consumed
		if exhausted {
			a.holdGrowths++
			if a.tracer != nil {
				a.tracer.DrainPID(a.task.PID())
			}
			a.window.Reset()
			req := simtime.Duration(1.5 * float64(a.server.Budget()))
			if req > a.server.Period() {
				req = a.server.Period()
			}
			a.applyHold(now, req)
			return
		}
	}

	// 1-2. Download the batch of traced timestamps and update the
	// period estimate.
	if a.window != nil && a.tracer != nil {
		events := a.tracer.DrainPID(a.task.PID())
		a.window.Observe(now, ktrace.Timestamps(events))
		if a.window.Events() >= a.cfg.MinEvents {
			det := spectrum.Detect(a.window.Spectrum(), a.cfg.Detect)
			if det.Periodic && det.Frequency > 0 {
				newP := simtime.FromHertz(det.Frequency)
				switch {
				case a.detected == 0 || relDiff(newP, a.period) <= a.cfg.PeriodTolerance:
					// First lock, or a refinement of the current one:
					// apply directly.
					a.detected = det.Frequency
					a.period = newP
					a.pendingCount = 0
				case a.pendingPeriod != 0 && relDiff(newP, a.pendingPeriod) <= a.cfg.PeriodTolerance:
					// The same new period again: one more vote.
					a.pendingCount++
					a.pendingPeriod = newP
					if a.pendingCount >= 2 {
						// The change is real: per-period scalings of the
						// controller history are invalid.
						a.ctrl.Reset()
						a.detected = det.Frequency
						a.period = newP
						a.pendingCount = 0
						a.pendingPeriod = 0
					}
				default:
					a.pendingPeriod = newP
					a.pendingCount = 0
				}
			}
		}
	}

	// With rate detection enabled, the feedback law is held back until
	// the analyser has produced a first period estimate: the law
	// rescales consumption by the period, so acting on the initial
	// guess can shrink the budget, dilate the application's bursts and
	// imprint the wrong period onto the very trace the analyser is
	// about to read.
	if a.window != nil && a.detected == 0 {
		a.applyHold(now, a.server.Budget())
		return
	}

	// 3. Sample the scheduler state and run the feedback law.
	srvStats := a.server.Stats()
	req := a.ctrl.Tick(feedback.Sample{
		Now:         now,
		Consumed:    srvStats.Consumed,
		Exhaustions: srvStats.Exhaustions,
		Period:      a.period,
		Sampling:    a.cfg.Sampling,
		Budget:      a.server.Budget(),
	})
	if req > a.period {
		req = a.period
	}
	if req <= 0 {
		req = simtime.Microsecond
	}

	// 4. Submit to the supervisor and actuate.
	granted := req
	if a.client != nil {
		granted = a.client.Request(req, a.period)
		if granted <= 0 {
			granted = simtime.Microsecond
		}
	}
	if granted != a.server.Budget() || a.period != a.server.Period() {
		a.server.SetParams(granted, a.period)
	}
	a.recordSnapshot(now, req, granted)
}

// applyHold actuates a hold-phase request (possibly just the current
// budget) through the supervisor and records the snapshot.
func (a *AutoTuner) applyHold(now simtime.Time, req simtime.Duration) {
	granted := req
	if a.client != nil {
		granted = a.client.Request(req, a.server.Period())
		if granted <= 0 {
			granted = simtime.Microsecond
		}
	}
	if granted != a.server.Budget() {
		a.server.SetParams(granted, a.server.Period())
	}
	a.recordSnapshot(now, req, granted)
}

func (a *AutoTuner) recordSnapshot(now simtime.Time, req, granted simtime.Duration) {
	snap := Snapshot{
		At:        now,
		Period:    a.period,
		Requested: req,
		Granted:   granted,
		Bandwidth: a.server.Bandwidth(),
		Detected:  a.detected,
	}
	if a.window != nil {
		snap.Events = a.window.Events()
	}
	a.snapshots = append(a.snapshots, snap)
	if a.BusTick != nil {
		a.BusTick(snap)
	}
	if a.OnTick != nil {
		a.OnTick(snap)
	}
}

func relDiff(a, b simtime.Duration) float64 {
	if b == 0 {
		return 1
	}
	d := float64(a-b) / float64(b)
	if d < 0 {
		return -d
	}
	return d
}
