package sched_test

import (
	"testing"

	"repro/internal/ktrace"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// traceEmitter issues hook syscalls into a tracer ring, the way the
// workload models do.
type traceEmitter struct{ buf *ktrace.Buffer }

func (e traceEmitter) EmitSyscall(now simtime.Time, pid, nr int) simtime.Duration {
	return e.buf.Syscall(now, pid, nr)
}

// startTracedPeriodic releases a job of demand c every p on t, each
// carrying a start-of-job and an end-of-job syscall hook.
func startTracedPeriodic(eng *sim.Engine, t *sched.Task, c, p simtime.Duration, emit sched.SyscallEmitter) {
	var release func()
	next := eng.Now()
	release = func() {
		j := sched.NewJob(eng.Now(), c, eng.Now().Add(p))
		j.AddHook(0, t.PID(), 1, emit)
		j.AddHook(c/2, t.PID(), 2, emit)
		j.AddHook(c, t.PID(), 3, emit)
		t.Release(j)
		next = next.Add(p)
		eng.At(next, release)
	}
	eng.At(next, release)
}

// TestDispatchSteadyStateAllocatesNothing pins the allocation-free
// dispatch path: with job recycling on and no log, a hard CBS server
// that throttles every period, two round-robin best-effort tasks and
// traced syscall hooks on every job, one simulated second allocates
// nothing once the pools and queues have warmed up.
func TestDispatchSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items on purpose")
	}
	eng := sim.New()
	sd := sched.New(sched.Config{Engine: eng, RecycleJobs: true, BEQuantum: ms})
	emit := traceEmitter{ktrace.NewBuffer(ktrace.QTrace, 1024)}

	// 2.5ms of demand every 10ms against a 2ms budget every 5ms: each
	// job exhausts the budget once and finishes after replenishment.
	srv := sd.NewServer("rt", 2*ms, 5*ms, sched.HardCBS)
	rt := sd.NewTask("rt")
	rt.AttachTo(srv, 0)
	startTracedPeriodic(eng, rt, 2500*us, 10*ms, emit)
	// Two best-effort tasks whose jobs outlast the quantum, so they
	// rotate through the run queue.
	startTracedPeriodic(eng, sd.NewTask("be0"), 3*ms, 7*ms, emit)
	startTracedPeriodic(eng, sd.NewTask("be1"), 2*ms, 11*ms, emit)

	second := func() { eng.RunUntil(eng.Now().Add(simtime.Second)) }
	for i := 0; i < 3; i++ {
		second()
	}
	if allocs := testing.AllocsPerRun(5, second); allocs != 0 {
		t.Errorf("one simulated second allocated %v times, want 0", allocs)
	}
	if got := rt.Stats(); got.Completed == 0 || srv.Stats().Exhaustions == 0 {
		t.Fatalf("scenario did not exercise throttling: %+v %+v", got, srv.Stats())
	}
	if err := sd.Validate(); err != nil {
		t.Fatal(err)
	}
}
