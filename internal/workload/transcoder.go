package workload

import (
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// TranscoderConfig parameterises the ffmpeg-like batch workload used
// for the tracer-overhead measurement (Table 1).
type TranscoderConfig struct {
	Name string
	// TotalWork is the pure CPU demand of the transcode, without any
	// tracing overhead (the paper's NOTRACE baseline, 21.09s).
	TotalWork simtime.Duration
	// WorkJitter is the relative standard deviation of the run-to-run
	// demand noise (the paper's baseline shows ~0.45%).
	WorkJitter float64
	// SyscallEvery is the execution progress between consecutive
	// syscalls (frame reads/writes). The paper's ffmpeg emits a few
	// hundred calls per second of CPU time.
	SyscallEvery simtime.Duration
	// Sink receives the emitted syscalls; nil disables emission.
	Sink SyscallSink
	// OnRequest receives one Request when the transcode unit completes
	// (nil: unobserved). Transcodes run without a deadline, so the
	// request's latency is the batch turnaround time.
	OnRequest RequestObserver
}

// DefaultTranscoderConfig mirrors Table 1's setup.
func DefaultTranscoderConfig(name string) TranscoderConfig {
	return TranscoderConfig{
		Name:         name,
		TotalWork:    simtime.Duration(21.09 * float64(simtime.Second)),
		WorkJitter:   0.0045,
		SyscallEvery: 2500 * simtime.Microsecond, // ~400 calls per CPU second
	}
}

// Transcoder is a single CPU-bound batch job that emits syscalls at
// regular execution-progress intervals.
type Transcoder struct {
	cfg     TranscoderConfig
	lt      laneTimers
	task    *sched.Task
	r       *rng.Source
	calls   int
	finish  simtime.Time
	started bool
}

// MoveLane implements LaneMover: re-arm a pending deferred start on the
// destination lane and emit future syscalls into its tracer.
func (tr *Transcoder) MoveLane(dst *sim.Engine, sink SyscallSink) {
	tr.lt.move(dst)
	if sink != nil {
		tr.cfg.Sink = sink
	}
}

// NewTranscoder creates the transcoder's task in the best-effort class.
func NewTranscoder(sd *sched.Scheduler, r *rng.Source, cfg TranscoderConfig) *Transcoder {
	if cfg.TotalWork <= 0 {
		panic("workload: transcoder work must be positive")
	}
	if cfg.SyscallEvery <= 0 {
		panic("workload: transcoder syscall interval must be positive")
	}
	tr := &Transcoder{cfg: cfg, lt: laneTimers{eng: sd.Engine()}, task: sd.NewTask(cfg.Name), r: r}
	tr.task.OnJobComplete = func(j *sched.Job, now simtime.Time) { tr.finish = now }
	if cfg.OnRequest != nil {
		complete := observeCompletion(cfg.OnRequest, 0)
		tr.task.OnJobComplete = func(j *sched.Job, now simtime.Time) {
			tr.finish = now
			complete(j, now)
		}
	}
	return tr
}

// Task returns the underlying scheduler task.
func (tr *Transcoder) Task() *sched.Task { return tr.task }

// Name returns the transcoder's configured name.
func (tr *Transcoder) Name() string { return tr.cfg.Name }

// Start releases the transcode job at the given instant (clamped to
// the present, so a mid-run start cannot schedule into the past).
// Starting twice panics, like every other workload.
func (tr *Transcoder) Start(at simtime.Time) {
	if tr.started {
		panic("workload: Transcoder started twice")
	}
	tr.started = true
	if now := tr.lt.now(); at < now {
		at = now
	}
	tr.lt.at(at, func() {
		work := float64(tr.cfg.TotalWork)
		if tr.cfg.WorkJitter > 0 {
			work *= tr.r.Norm(1, tr.cfg.WorkJitter)
		}
		total := simtime.Duration(work)
		j := sched.NewJob(tr.lt.now(), total, simtime.Never)
		if tr.cfg.Sink != nil {
			pid := tr.task.PID()
			// Alternate read (demux input) and write (mux output),
			// with a periodic lseek. The sink is read at fire time so
			// an in-flight transcode migrating across lanes emits the
			// rest of its calls into the destination core's tracer.
			i := 0
			for off := tr.cfg.SyscallEvery; off < total; off += tr.cfg.SyscallEvery {
				nr := SysRead
				switch i % 4 {
				case 1, 3:
					nr = SysWrite
				case 2:
					nr = SysLseek
				}
				i++
				j.AddHook(off, pid, int(nr), transcoderEmitter{tr})
			}
		}
		tr.task.Release(j)
	})
}

// transcoderEmitter issues a transcode's syscall hooks, counting each
// one and reading the sink at fire time, like sinkEmitter.
type transcoderEmitter struct{ tr *Transcoder }

// EmitSyscall implements sched.SyscallEmitter.
func (e transcoderEmitter) EmitSyscall(now simtime.Time, pid, nr int) simtime.Duration {
	e.tr.calls++
	return e.tr.cfg.Sink.Syscall(now, pid, nr)
}

// Calls returns the number of syscalls emitted so far.
func (tr *Transcoder) Calls() int { return tr.calls }

// Finished reports whether the transcode completed, and when.
func (tr *Transcoder) Finished() (simtime.Time, bool) {
	if tr.task.Stats().Completed == 0 {
		return 0, false
	}
	return tr.finish, true
}
