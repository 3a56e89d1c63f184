package repro

import (
	"testing"

	"repro/selftune"
)

// TestCoreParallelMachineAllocs bounds what one simulated second of
// BenchmarkCoreParallelMachine's dense 64-core laned machine allocates
// once warmed up. The dispatch path allocates nothing, so what remains
// is a handful of sync.Pool refills (a few per second here). Their
// count moves with goroutine placement under GOMAXPROCS > 1 (170-300
// per benchmark op on a 2 vCPU host), too much for a ±20% gate on one
// sample, so the regression check is this bound instead: any
// allocation per job or per dispatch costs thousands per second.
func TestCoreParallelMachineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items on purpose")
	}
	sys := coreParallelMachine(t, 2)
	defer sys.Close()
	sys.Run(2 * selftune.Second)
	allocs := testing.AllocsPerRun(3, func() { sys.Run(selftune.Second) })
	if allocs > 2000 {
		t.Errorf("one simulated second allocated %v times, want at most 2000", allocs)
	}
	t.Logf("%v allocations per simulated second", allocs)
}
