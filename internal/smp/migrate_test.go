package smp_test

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/smp"
)

// reservedServer places a hint on a specific core and backs it with a
// real CBS server of the same bandwidth, the shape a tuned workload
// leaves on the machine.
func reservedServer(t *testing.T, m *smp.Machine, core int, name string, bw float64) *sched.Server {
	t.Helper()
	if err := m.Reserve(core, bw); err != nil {
		t.Fatalf("Reserve(%d, %v): %v", core, bw, err)
	}
	period := 100 * simtime.Millisecond
	srv := m.Core(core).NewServer(name, simtime.Duration(bw*float64(period)), period, sched.HardCBS)
	task := m.Core(core).NewTask(name)
	task.AttachTo(srv, 0)
	return srv
}

// one wraps a single server as a migration unit.
func one(srv *sched.Server) sched.Group { return sched.Group{Servers: []*sched.Server{srv}} }

func TestMigrateToFullCoreRejected(t *testing.T) {
	eng := sim.New()
	m := smp.New(eng, 2, 1)
	srv := reservedServer(t, m, 0, "mover", 0.3)
	// Fill core 1 so the 0.3 reservation cannot fit.
	if err := m.Reserve(1, 0.8); err != nil {
		t.Fatal(err)
	}
	before := m.Loads()
	arrived := false
	if err := m.Move(one(srv), 0, m, 1, 0.3, func() error { arrived = true; return nil }); err == nil {
		t.Fatal("migration to a full core accepted")
	}
	// Rejection must leave the machine untouched: same loads, server
	// still owned by core 0, no migration counted, arrive never run.
	after := m.Loads()
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("core %d load changed across rejected migration: %v -> %v", i, before[i], after[i])
		}
	}
	if !m.Core(0).Owns(srv) {
		t.Error("server left core 0 despite rejection")
	}
	if m.Migrations() != 0 {
		t.Errorf("Migrations() = %d after rejection", m.Migrations())
	}
	if arrived {
		t.Error("arrive ran for a move refused at admission")
	}
	// A rollback re-runs no admission: a state that was legal moments
	// ago must be restorable even if the source account filled up
	// while the unit was away.
	m.Release(1, 0.2)
	refill := func() error {
		if err := m.Reserve(0, 0.7); err != nil {
			t.Fatal(err)
		}
		return errRefused
	}
	if err := m.Move(one(srv), 0, m, 1, 0.3, refill); !errors.Is(err, errRefused) {
		t.Fatalf("Move = %v, want the arrive error", err)
	}
	if !m.Core(0).Owns(srv) {
		t.Error("rollback did not return the server to its filled-up source")
	}
	if got := m.Load(0); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("core 0 load %.3f after the rollback, want 1.0", got)
	}
	m.Release(0, 0.7)
	// Once the blocker has shrunk the same move goes through.
	if err := m.Move(one(srv), 0, m, 1, 0.3, nil); err != nil {
		t.Fatalf("move after freeing room: %v", err)
	}
	if !m.Core(1).Owns(srv) {
		t.Error("server did not move")
	}
	if got := m.Load(1); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("core 1 load %.3f after the move, want 0.9", got)
	}
}

func TestMigrateValidation(t *testing.T) {
	eng := sim.New()
	m := smp.New(eng, 2, 1)
	srv := reservedServer(t, m, 0, "s", 0.2)
	foreign := sched.New(sched.Config{Engine: eng}).NewServer("foreign", 10*simtime.Millisecond, 100*simtime.Millisecond, sched.HardCBS)
	cases := []struct {
		name     string
		g        sched.Group
		dst      *smp.Machine
		from, to int
	}{
		{"nil server", one(nil), m, 0, 1},
		{"empty group", sched.Group{}, m, 0, 1},
		{"nil machine", one(srv), nil, 0, 1},
		{"from out of range", one(srv), m, -1, 1},
		{"to out of range", one(srv), m, 0, 2},
		{"same core", one(srv), m, 0, 0},
		{"wrong source core", one(srv), m, 1, 0},
		{"foreign server", one(foreign), m, 0, 1},
	}
	for _, tc := range cases {
		if err := m.Move(tc.g, tc.from, tc.dst, tc.to, 0.2, nil); err == nil {
			t.Errorf("%s: migration accepted", tc.name)
		}
	}
	if m.Migrations() != 0 {
		t.Errorf("Migrations() = %d", m.Migrations())
	}
	if !m.Core(0).Owns(srv) {
		t.Error("a refused move took the server off its core")
	}
}

func TestMigrateConservesBandwidth(t *testing.T) {
	eng := sim.New()
	m := smp.New(eng, 4, 1)
	srvs := []*sched.Server{
		reservedServer(t, m, 0, "a", 0.40),
		reservedServer(t, m, 0, "b", 0.25),
		reservedServer(t, m, 1, "c", 0.30),
	}
	total := func() float64 {
		var s float64
		for _, l := range m.Loads() {
			s += l
		}
		return s
	}
	reserved := func() float64 {
		var s float64
		for i := 0; i < m.Cores(); i++ {
			s += m.Core(i).TotalReservedBandwidth()
		}
		return s
	}
	wantTotal, wantReserved := total(), reserved()
	moves := []struct {
		srv      *sched.Server
		from, to int
		hint     float64
	}{
		{srvs[0], 0, 2, 0.40},
		{srvs[1], 0, 3, 0.25},
		{srvs[2], 1, 0, 0.30},
		{srvs[0], 2, 1, 0.40},
	}
	for i, mv := range moves {
		if err := m.Move(one(mv.srv), mv.from, m, mv.to, mv.hint, nil); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
		if got := total(); math.Abs(got-wantTotal) > 1e-9 {
			t.Errorf("move %d: hint bandwidth not conserved: %v, want %v", i, got, wantTotal)
		}
		if got := reserved(); math.Abs(got-wantReserved) > 1e-9 {
			t.Errorf("move %d: reserved bandwidth not conserved: %v, want %v", i, got, wantReserved)
		}
		if !m.Core(mv.to).Owns(mv.srv) {
			t.Errorf("move %d: server not owned by destination", i)
		}
	}
	if m.Migrations() != len(moves) {
		t.Errorf("Migrations() = %d, want %d", m.Migrations(), len(moves))
	}
}

// TestMoveAcrossMachines is a live transfer at the smp level: the unit
// leaves one machine's scheduler and account and lands on the other's,
// with the admission overcharge shrunk back to the lasting hint, and
// neither machine counts it as one of its own migrations.
func TestMoveAcrossMachines(t *testing.T) {
	eng := sim.New()
	a, b := smp.New(eng, 2, 1), smp.NewOffset(eng, 2, 1, 1_000_000_000)
	g := reservedGroup(t, a, 1, "bg", 0.1, 3) // 0.3 reserved under a 0.3 hint
	// A hint below the reserved bandwidth: the destination is checked
	// against the larger charge, then keeps only the hint.
	if err := a.Move(g, 1, b, 1, 0.2, nil); err != nil {
		t.Fatalf("Move across machines: %v", err)
	}
	for _, srv := range g.Servers {
		if !b.Core(1).Owns(srv) {
			t.Errorf("server %s not owned by the destination machine", srv.Name())
		}
	}
	if got := a.Load(1); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("source core at %.3f, want the 0.1 of hint it kept", got)
	}
	if got := b.Load(1); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("destination core at %.3f, want its reserved 0.3", got)
	}
	if a.Migrations() != 0 || b.Migrations() != 0 {
		t.Errorf("a transfer counted as a migration: %d and %d", a.Migrations(), b.Migrations())
	}
	// Same core index on another machine is a real move.
	if err := b.Move(g, 1, a, 1, 0.2, nil); err != nil {
		t.Fatalf("Move back: %v", err)
	}
	if !a.Core(1).Owns(g.Servers[0]) {
		t.Error("unit did not come back")
	}
}

// TestMoveRollsBackAcrossMachines: an arrive error returns the unit to
// the source machine and leaves both accounts as they were.
func TestMoveRollsBackAcrossMachines(t *testing.T) {
	eng := sim.New()
	a, b := smp.New(eng, 2, 1), smp.NewOffset(eng, 2, 1, 1_000_000_000)
	srv := reservedServer(t, a, 0, "s", 0.3)
	loadsA, loadsB := a.Loads(), b.Loads()
	if err := a.Move(one(srv), 0, b, 0, 0.3, func() error { return errRefused }); !errors.Is(err, errRefused) {
		t.Fatalf("Move = %v, want the arrive error", err)
	}
	if !a.Core(0).Owns(srv) {
		t.Error("rolled-back unit not returned to its source machine")
	}
	for i, l := range a.Loads() {
		if l != loadsA[i] {
			t.Errorf("source core %d at %v after rollback, want %v", i, l, loadsA[i])
		}
	}
	for i, l := range b.Loads() {
		if l != loadsB[i] {
			t.Errorf("destination core %d at %v after rollback, want %v", i, l, loadsB[i])
		}
	}
}

// TestConcurrentPlaceReleaseLeavesNoOrphan hammers the placement
// accounts from many goroutines: every successful Place is eventually
// Released, so the accounts must drain back to zero — an orphaned
// reservation would permanently shrink the machine. Run under -race
// this also proves the accounts are safe to probe concurrently.
func TestConcurrentPlaceReleaseLeavesNoOrphan(t *testing.T) {
	m := smp.New(sim.New(), 4, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < 500; i++ {
				bw := r.Uniform(0.05, 0.3)
				core, err := m.Place(bw)
				if err != nil {
					continue // machine transiently full: fine
				}
				if m.Load(core) > 1+1e-9 {
					t.Errorf("core %d overloaded at %.3f", core, m.Load(core))
				}
				m.Release(core, bw)
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	for i, load := range m.Loads() {
		if load > 1e-9 {
			t.Errorf("core %d still charged %.6f after all releases", i, load)
		}
	}
}
