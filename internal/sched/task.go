package sched

import (
	"fmt"
	"sync"

	"repro/internal/simtime"
)

// SyscallEmitter issues the system calls of a job's progress hooks.
// It is implemented by the workload that built the job, which reads
// its current syscall sink at fire time, so a job that follows its
// workload to another tracer emits the rest of its calls there.
// EmitSyscall returns the extra execution demand the tracing machinery
// charges for the call (zero when untraced); the scheduler adds it to
// the job.
type SyscallEmitter interface {
	EmitSyscall(now simtime.Time, pid, nr int) simtime.Duration
}

// ProgressHook is a system call a job issues when its cumulative
// execution reaches Offset. Hooks model the observable side effects of
// execution, so their firing *wall* time depends on how the job is
// scheduled, which is exactly the load-dependence the paper's tracer
// observes. A hook is plain data, so attaching one allocates nothing
// beyond the job's reusable hook slice.
type ProgressHook struct {
	Offset simtime.Duration // execution progress at which to fire
	PID    int              // issuing process
	NR     int              // syscall number
	Emit   SyscallEmitter   // nil: the hook fires without effect
}

// Job is one activation of a task: an execution demand plus an
// absolute deadline and an ordered list of progress hooks.
type Job struct {
	Release  simtime.Time
	Deadline simtime.Time // absolute; Never means no deadline
	Total    simtime.Duration

	done     simtime.Duration
	hooks    []ProgressHook // must be sorted by Offset
	nextHook int
	gen      uint64 // bumped on recycle; see Generation

	// Filled in at completion.
	Finish simtime.Time
}

// jobPool recycles Job storage. It is process-global rather than
// per-scheduler so pooled schedulers running on concurrent engine
// lanes share one free list; sync.Pool is safe for that, and pointer
// identity of a recycled job never feeds back into simulation state.
var jobPool = sync.Pool{New: func() any { return new(Job) }}

// NewJob returns a job released at rel with execution demand total and
// absolute deadline dl (use simtime.Never for none). Storage may come
// from the recycling pool (Config.RecycleJobs); the hook slice is
// reused across generations.
func NewJob(rel simtime.Time, total simtime.Duration, dl simtime.Time) *Job {
	if total < 0 {
		panic("sched: job with negative demand")
	}
	j := jobPool.Get().(*Job)
	*j = Job{
		Release:  rel,
		Deadline: dl,
		Total:    total,
		Finish:   simtime.Never,
		hooks:    j.hooks[:0],
		gen:      j.gen,
	}
	return j
}

// Generation returns the job's recycle generation. A caller that must
// detect a stale reference across a completion — legal only when the
// owning scheduler runs with Config.RecycleJobs — records the
// generation at hand-off and compares: a recycled job has a higher
// generation, mirroring the sim.Timer discipline.
func (j *Job) Generation() uint64 { return j.gen }

// recycle retires a completed job's storage to the pool. The
// generation bump is what invalidates retained references; the hook
// emitters are dropped eagerly so recycled jobs never pin a workload.
func (j *Job) recycle() {
	j.gen++
	for i := range j.hooks {
		j.hooks[i].Emit = nil
	}
	jobPool.Put(j)
}

// AddHook registers a progress hook: when the job has executed for
// off, emit issues syscall nr for process pid. Hooks must be added in
// non-decreasing offset order before the job is released.
func (j *Job) AddHook(off simtime.Duration, pid, nr int, emit SyscallEmitter) {
	if n := len(j.hooks); n > 0 && j.hooks[n-1].Offset > off {
		panic("sched: job hooks must be added in offset order")
	}
	if off < 0 {
		off = 0
	}
	if off > j.Total {
		off = j.Total
	}
	j.hooks = append(j.hooks, ProgressHook{Offset: off, PID: pid, NR: nr, Emit: emit})
}

// fireHooks issues every hook the job's progress has reached, charging
// each call's tracing overhead to the job. Emitters may call back into
// the scheduler (e.g. a traced syscall triggering a controller); the
// dispatch re-entrancy guard folds those into the current pass.
func (j *Job) fireHooks(now simtime.Time) {
	for j.nextHook < len(j.hooks) && j.hooks[j.nextHook].Offset <= j.done {
		h := j.hooks[j.nextHook]
		j.nextHook++
		if h.Emit != nil {
			j.ExtendDemand(h.Emit.EmitSyscall(now, h.PID, h.NR))
		}
	}
}

// Done returns the execution already received by the job.
func (j *Job) Done() simtime.Duration { return j.done }

// ExtendDemand adds extra execution demand to the job. It models work
// injected while the job runs — in this reproduction, the per-syscall
// overhead charged by the kernel tracer, which the scheduler applies
// for every fired progress hook. Non-positive amounts are ignored.
func (j *Job) ExtendDemand(d simtime.Duration) {
	if d > 0 {
		j.Total += d
	}
}

// Remaining returns the outstanding execution demand.
func (j *Job) Remaining() simtime.Duration { return j.Total - j.done }

// ResponseTime returns the job's completion time minus its release
// time, or a negative value if the job has not finished.
func (j *Job) ResponseTime() simtime.Duration {
	if j.Finish == simtime.Never {
		return -1
	}
	return j.Finish.Sub(j.Release)
}

// Missed reports whether the job finished after its deadline (or has a
// deadline in the past and is still unfinished at the given instant).
func (j *Job) Missed(now simtime.Time) bool {
	if j.Deadline == simtime.Never {
		return false
	}
	if j.Finish != simtime.Never {
		return j.Finish.After(j.Deadline)
	}
	return now.After(j.Deadline)
}

// nextBoundary returns how much further the job may execute before the
// next interesting point: the next hook offset or job completion.
func (j *Job) nextBoundary() simtime.Duration {
	if j.nextHook < len(j.hooks) {
		return j.hooks[j.nextHook].Offset - j.done
	}
	return j.Total - j.done
}

// TaskStats aggregates per-task scheduling statistics.
type TaskStats struct {
	Released    int
	Completed   int
	Missed      int
	Consumed    simtime.Duration // total CPU time received
	MaxTardy    simtime.Duration // worst completion tardiness observed
	Preemptions int
}

// Task is a schedulable entity: a stream of jobs served FIFO. A task
// is attached either to a CBS server (real-time class) or to the
// best-effort class.
type Task struct {
	name string
	pid  int

	sched  *Scheduler
	server *Server
	prio   int // fixed priority inside a server; lower value = higher priority

	pending []*Job // FIFO backlog, pending[0] is the current job; see popFront
	stats   TaskStats

	// OnJobComplete, if non-nil, is invoked when a job finishes.
	OnJobComplete func(j *Job, now simtime.Time)
	// OnJobStart, if non-nil, is invoked the first time a job runs.
	OnJobStart func(j *Job, now simtime.Time)

	started bool // current job has begun execution

	beQueued bool // linked into the best-effort run queue
}

// Name returns the task's name.
func (t *Task) Name() string { return t.name }

// PID returns the task's process identifier (used by the tracer's
// per-process filters).
func (t *Task) PID() int { return t.pid }

// Stats returns a snapshot of the task's statistics. Consumed includes
// the in-progress slice of a currently running task.
func (t *Task) Stats() TaskStats {
	s := t.stats
	if t.sched.runTask == t {
		s.Consumed += t.sched.now().Sub(t.sched.runStart)
	}
	return s
}

// Server returns the CBS server the task is attached to, or nil for a
// best-effort task.
func (t *Task) Server() *Server { return t.server }

// Priority returns the task's fixed priority inside its server.
func (t *Task) Priority() int { return t.prio }

// Backlog returns the number of unfinished jobs (including the one in
// service).
func (t *Task) Backlog() int { return len(t.pending) }

// CurrentJob returns the job in service, or nil.
func (t *Task) CurrentJob() *Job {
	if len(t.pending) == 0 {
		return nil
	}
	return t.pending[0]
}

func (t *Task) runnable() bool { return len(t.pending) > 0 }

// Release hands a new job to the task. It must be called from within
// the simulation (typically from a timer event); the job's Release
// field is overwritten with the current instant.
func (t *Task) Release(j *Job) {
	now := t.sched.now()
	j.Release = now
	t.pending = append(t.pending, j)
	t.stats.Released++
	t.sched.logTask(EvJobRelease, t, j.Total)
	if len(t.pending) == 1 {
		t.started = false
		if hook := t.sched.transitionHook; hook != nil {
			hook(t, true, now)
		}
		// Task transitioned idle -> runnable: wake its class.
		if t.server != nil {
			t.server.taskWoke(now)
		} else {
			t.sched.beWake(t)
		}
	}
	t.sched.dispatch()
}

// String implements fmt.Stringer.
func (t *Task) String() string {
	return fmt.Sprintf("task(%s pid=%d)", t.name, t.pid)
}

// completeCurrent finalises the job in service. Caller must have
// verified j.done == j.Total.
func (t *Task) completeCurrent(now simtime.Time) {
	j := t.pending[0]
	j.Finish = now
	t.pending = popFront(t.pending)
	t.started = false
	t.stats.Completed++
	if j.Deadline != simtime.Never && now.After(j.Deadline) {
		t.stats.Missed++
		if tardy := now.Sub(j.Deadline); tardy > t.stats.MaxTardy {
			t.stats.MaxTardy = tardy
		}
	}
	t.sched.logTask(EvJobComplete, t, j.ResponseTime())
	if len(t.pending) == 0 {
		if hook := t.sched.transitionHook; hook != nil {
			hook(t, false, now)
		}
	}
	if t.OnJobComplete != nil {
		t.OnJobComplete(j, now)
	}
	if t.sched.recycleJobs {
		j.recycle()
	}
}

// popFront removes q[0] by shifting the rest down in place, keeping
// the whole backing array (q = q[1:] would drop a slot of capacity per
// pop), so a FIFO that is pushed and popped at the same rate stops
// reallocating once it has reached its peak length.
func popFront[T any](q []*T) []*T {
	n := copy(q, q[1:])
	q[n] = nil
	return q[:n]
}
