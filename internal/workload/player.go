package workload

import (
	"cmp"
	"slices"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// SyscallSink receives the system calls issued by an application and
// returns the extra execution demand the tracing machinery charges for
// each recorded call (zero when untraced or filtered out). It is
// implemented by ktrace.Buffer.
type SyscallSink interface {
	Syscall(now simtime.Time, pid int, nr int) simtime.Duration
}

// sinkEmitter issues a job's syscall hooks into whatever sink the
// workload field it points at holds when the hook fires, not when it
// was added: a cross-lane move repoints that field at the destination
// core's tracer, and in-flight jobs must emit there too. A one-pointer
// struct, it converts to sched.SyscallEmitter without allocating.
type sinkEmitter struct{ sink *SyscallSink }

// EmitSyscall implements sched.SyscallEmitter.
func (e sinkEmitter) EmitSyscall(now simtime.Time, pid, nr int) simtime.Duration {
	return (*e.sink).Syscall(now, pid, nr)
}

// PlayerConfig parameterises a media player model.
type PlayerConfig struct {
	Name string

	// Period is the frame period (e.g. 40ms for 25 fps video,
	// ~30.77ms for the paper's 32.5Hz mp3 clock).
	Period simtime.Duration
	// ReleaseJitter is the half-width of the uniform jitter applied
	// independently to each frame release instant (no drift).
	ReleaseJitter simtime.Duration

	// MeanDemand is the average per-frame decode time.
	MeanDemand simtime.Duration
	// DemandJitter is the relative standard deviation of the
	// multiplicative noise on each frame's decode time.
	DemandJitter float64

	// GOP, if positive, imposes an MPEG group-of-pictures structure of
	// that length (pattern I BB P BB P ...): I frames cost IBoost times
	// the P-frame demand and B frames BDrop times it. Zero disables
	// the structure (audio-style constant load).
	GOP    int
	IBoost float64
	BDrop  float64

	// Syscall emission: uniformly drawn counts for the start-of-job and
	// end-of-job bursts, plus scattered mid-job calls.
	StartBurstMin, StartBurstMax int
	EndBurstMin, EndBurstMax     int
	MidCallsMax                  int

	// Sink receives emitted syscalls; nil disables emission.
	Sink SyscallSink
}

// VideoPlayerConfig returns the configuration used for the paper's
// video experiments (Figs 13-14, Table 3): a 25 fps stream with GOP
// structure and the given mean utilisation of the simulated CPU.
func VideoPlayerConfig(name string, meanUtil float64) PlayerConfig {
	period := 40 * simtime.Millisecond
	return PlayerConfig{
		Name:          name,
		Period:        period,
		ReleaseJitter: 500 * simtime.Microsecond,
		MeanDemand:    simtime.Duration(meanUtil * float64(period)),
		DemandJitter:  0.10,
		GOP:           12,
		IBoost:        1.8,
		BDrop:         0.6,
		StartBurstMin: 6, StartBurstMax: 12,
		EndBurstMin: 8, EndBurstMax: 14,
		MidCallsMax: 4,
	}
}

// MP3PlayerConfig returns the configuration matching the paper's mp3
// tracing experiments (Figs 6-12): a 32.5Hz frame clock and light,
// near-constant decode load.
func MP3PlayerConfig(name string) PlayerConfig {
	period := simtime.FromHertz(32.5)
	return PlayerConfig{
		Name:          name,
		Period:        period,
		ReleaseJitter: 300 * simtime.Microsecond,
		MeanDemand:    simtime.Duration(0.15 * float64(period)),
		DemandJitter:  0.08,
		StartBurstMin: 5, StartBurstMax: 9,
		EndBurstMin: 7, EndBurstMax: 12,
		MidCallsMax: 3,
	}
}

// Player is a generative model of a periodic multimedia application.
type Player struct {
	cfg  PlayerConfig
	lt   laneTimers
	task *sched.Task
	r    *rng.Source

	startedRun bool
	stopped    bool

	frame    int
	finishes []simtime.Time
	displays []simtime.Time
	demands  []simtime.Duration
	gridBase simtime.Time
	nextSlot int

	// syscall mix weights, cumulative for sampling
	mixCalls []Syscall
	mixCum   []float64

	emits []playerEmit // per-frame scratch of addSyscallHooks
}

// playerEmit is one syscall of a frame, at its execution offset.
type playerEmit struct {
	off simtime.Duration
	nr  Syscall
}

// gopWeight returns the demand multiplier of frame k under the GOP
// structure, normalised so the average multiplier over a GOP is 1.
func (p *Player) gopWeight(k int) float64 {
	if p.cfg.GOP <= 0 {
		return 1
	}
	g := p.cfg.GOP
	pos := k % g
	var w float64
	switch {
	case pos == 0:
		w = p.cfg.IBoost
	case pos%3 == 0:
		w = 1 // P frame every third slot
	default:
		w = p.cfg.BDrop
	}
	// normalisation: one I, (g/3 - 1 + remainder) P, rest B
	var sum float64
	for i := 0; i < g; i++ {
		switch {
		case i == 0:
			sum += p.cfg.IBoost
		case i%3 == 0:
			sum += 1
		default:
			sum += p.cfg.BDrop
		}
	}
	return w * float64(g) / sum
}

// NewPlayer creates the player's task in the best-effort class; attach
// it to a server before starting if a reservation is wanted.
func NewPlayer(sd *sched.Scheduler, r *rng.Source, cfg PlayerConfig) *Player {
	if cfg.Period <= 0 {
		panic("workload: player period must be positive")
	}
	if cfg.MeanDemand <= 0 {
		panic("workload: player demand must be positive")
	}
	p := &Player{
		cfg:  cfg,
		lt:   laneTimers{eng: sd.Engine()},
		task: sd.NewTask(cfg.Name),
		r:    r,
	}
	p.task.OnJobComplete = func(j *sched.Job, now simtime.Time) {
		p.finishes = append(p.finishes, now)
		// The frame is displayed at its slot of the output time grid
		// (the player's A/V-sync clock) or immediately if decoded too
		// late for it. This is what makes the paper's inter-frame-time
		// metric sensitive to starvation but not to ahead-of-time
		// decoding.
		slot := p.gridBase.Add(simtime.Duration(p.nextSlot+1) * p.cfg.Period)
		p.nextSlot++
		if now.After(slot) {
			p.displays = append(p.displays, now)
		} else {
			p.displays = append(p.displays, slot)
		}
	}
	// The Figure-4 mix: ioctl-dominated ALSA traffic.
	mix := []struct {
		call Syscall
		w    float64
	}{
		{SysIoctl, 0.62}, {SysRead, 0.09}, {SysWrite, 0.07},
		{SysGettimeofday, 0.06}, {SysFutex, 0.05}, {SysPoll, 0.04},
		{SysSelect, 0.03}, {SysLseek, 0.02}, {SysMmap, 0.01}, {SysStat, 0.01},
	}
	var cum float64
	for _, m := range mix {
		cum += m.w
		p.mixCalls = append(p.mixCalls, m.call)
		p.mixCum = append(p.mixCum, cum)
	}
	return p
}

// Task returns the underlying scheduler task.
func (p *Player) Task() *sched.Task { return p.task }

// Name returns the player's configured name.
func (p *Player) Name() string { return p.cfg.Name }

// Config returns the player configuration.
func (p *Player) Config() PlayerConfig { return p.cfg }

// Start begins releasing frames at the given instant (clamped to the
// present, so a mid-run start cannot schedule into the past). Starting
// twice panics: a second release loop would corrupt the frame grid.
func (p *Player) Start(at simtime.Time) {
	if p.startedRun {
		panic("workload: Player started twice")
	}
	p.startedRun = true
	if now := p.lt.now(); at < now {
		at = now
	}
	p.gridBase = at
	next := at
	var release func()
	release = func() {
		if p.stopped {
			return
		}
		p.releaseFrame()
		next = next.Add(p.cfg.Period)
		p.lt.at(next, release)
	}
	first := at
	if j := p.cfg.ReleaseJitter; j > 0 {
		first = first.Add(simtime.Duration(p.r.Int63n(int64(2*j))) - j)
		if first < p.lt.now() {
			first = p.lt.now()
		}
	}
	p.lt.at(first, release)
}

func (p *Player) sampleSyscall() Syscall {
	u := p.r.Float64()
	for i, c := range p.mixCum {
		if u < c {
			return p.mixCalls[i]
		}
	}
	return p.mixCalls[len(p.mixCalls)-1]
}

func (p *Player) releaseFrame() {
	now := p.lt.now()
	demand := float64(p.cfg.MeanDemand) * p.gopWeight(p.frame)
	if p.cfg.DemandJitter > 0 {
		demand *= p.r.Norm(1, p.cfg.DemandJitter)
	}
	if min := 0.05 * float64(p.cfg.MeanDemand); demand < min {
		demand = min
	}
	p.frame++
	total := simtime.Duration(demand)
	deadline := now.Add(p.cfg.Period)
	j := sched.NewJob(now, total, deadline)
	p.addSyscallHooks(j, total)
	p.demands = append(p.demands, total)

	// Apply release jitter by deferring the actual release slightly.
	if jit := p.cfg.ReleaseJitter; jit > 0 {
		d := simtime.Duration(p.r.Int63n(int64(2 * jit)))
		p.lt.after(d, func() {
			if p.stopped {
				return
			}
			p.task.Release(j)
		})
	} else {
		p.task.Release(j)
	}
}

// addSyscallHooks attaches this frame's syscall emissions as progress
// hooks: a burst near progress 0, a burst near completion, and a few
// scattered mid-frame calls.
func (p *Player) addSyscallHooks(j *sched.Job, total simtime.Duration) {
	if p.cfg.Sink == nil {
		return
	}
	emits := p.emits[:0]
	span := func(lo, hi float64) simtime.Duration {
		return simtime.Duration(p.r.Uniform(lo, hi) * float64(total))
	}
	nStart := p.cfg.StartBurstMin
	if d := p.cfg.StartBurstMax - p.cfg.StartBurstMin; d > 0 {
		nStart += p.r.Intn(d + 1)
	}
	for i := 0; i < nStart; i++ {
		emits = append(emits, playerEmit{span(0, 0.04), p.sampleSyscall()})
	}
	nEnd := p.cfg.EndBurstMin
	if d := p.cfg.EndBurstMax - p.cfg.EndBurstMin; d > 0 {
		nEnd += p.r.Intn(d + 1)
	}
	for i := 0; i < nEnd; i++ {
		emits = append(emits, playerEmit{span(0.96, 1.0), p.sampleSyscall()})
	}
	if p.cfg.MidCallsMax > 0 {
		for i, n := 0, p.r.Intn(p.cfg.MidCallsMax+1); i < n; i++ {
			emits = append(emits, playerEmit{span(0.1, 0.9), p.sampleSyscall()})
		}
	}
	// The final blocking call of the job body (the clock_nanosleep or
	// ALSA wait that suspends the task until the next activation).
	emits = append(emits, playerEmit{total, SysNanosleep})

	// slices.SortFunc runs the same pdqsort as sort.Slice, so equal
	// offsets keep the order the seeded streams have always produced.
	slices.SortFunc(emits, func(a, b playerEmit) int { return cmp.Compare(a.off, b.off) })
	pid := p.task.PID()
	for _, e := range emits {
		j.AddHook(e.off, pid, int(e.nr), sinkEmitter{&p.cfg.Sink})
	}
	p.emits = emits
}

// MoveLane implements LaneMover: re-arm the release loop and any
// in-flight jittered releases on the destination lane and emit future
// syscalls into the destination core's tracer.
func (p *Player) MoveLane(dst *sim.Engine, sink SyscallSink) {
	p.lt.move(dst)
	if sink != nil {
		p.cfg.Sink = sink
	}
}

// Stop quiesces the player: the release loop and any in-flight
// jittered releases become no-ops at their next firing. Jobs already
// queued on the task are unaffected. Idempotent; safe before Start.
func (p *Player) Stop() { p.stopped = true }

// Frames returns the number of frames released so far.
func (p *Player) Frames() int { return p.frame }

// Finishes returns the completion instants of all finished frames.
func (p *Player) Finishes() []simtime.Time { return p.finishes }

// Demands returns the decode demand of each released frame.
func (p *Player) Demands() []simtime.Duration { return p.demands }

// InterFrameTimes returns the paper's application-level QoS metric:
// "the time between the visualisation of two video frames". Frames
// decoded in time are shown on the player's periodic output grid;
// frames decoded late are shown as soon as they are ready, so
// starvation widens these intervals (and the catch-up narrows them).
func (p *Player) InterFrameTimes() []simtime.Duration {
	return diffs(p.displays)
}

// InterCompletionTimes returns the intervals between raw decode
// completions, without the display grid — the scheduler-facing view
// used by tests of the decode pipeline itself.
func (p *Player) InterCompletionTimes() []simtime.Duration {
	return diffs(p.finishes)
}

func diffs(ts []simtime.Time) []simtime.Duration {
	if len(ts) < 2 {
		return nil
	}
	out := make([]simtime.Duration, len(ts)-1)
	for i := 1; i < len(ts); i++ {
		out[i-1] = ts[i].Sub(ts[i-1])
	}
	return out
}
