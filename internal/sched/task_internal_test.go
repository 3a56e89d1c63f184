package sched

import (
	"testing"

	"repro/internal/simtime"
)

type nopEmitter struct{}

func (nopEmitter) EmitSyscall(simtime.Time, int, int) simtime.Duration { return 0 }

// TestRecycleDropsHookEmitters checks that a job returned to the pool
// keeps its hook storage but no emitter, so a pooled job never pins
// the workload that built it.
func TestRecycleDropsHookEmitters(t *testing.T) {
	j := NewJob(0, 10, simtime.Never)
	j.AddHook(2, 1000, 1, nopEmitter{})
	j.AddHook(5, 1000, 2, nopEmitter{})
	gen := j.Generation()
	j.recycle()
	if j.Generation() != gen+1 {
		t.Errorf("generation %d after recycle, want %d", j.Generation(), gen+1)
	}
	if len(j.hooks) != 2 {
		t.Fatalf("recycle dropped the hook storage: %d hooks", len(j.hooks))
	}
	for i, h := range j.hooks {
		if h.Emit != nil {
			t.Errorf("hook %d still holds its emitter after recycle", i)
		}
	}
}
