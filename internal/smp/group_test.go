package smp_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/smp"
)

// reservedGroup builds a multi-reservation unit on one core — the
// shape an untuned background load leaves on the machine: n servers
// of bw each, one aggregate placement hint.
func reservedGroup(t *testing.T, m *smp.Machine, core int, name string, bw float64, n int) sched.Group {
	t.Helper()
	if err := m.Reserve(core, bw*float64(n)); err != nil {
		t.Fatalf("Reserve(%d, %v): %v", core, bw*float64(n), err)
	}
	var g sched.Group
	period := 100 * simtime.Millisecond
	for i := 0; i < n; i++ {
		srv := m.Core(core).NewServer(name, simtime.Duration(bw*float64(period)), period, sched.HardCBS)
		task := m.Core(core).NewTask(name)
		task.AttachTo(srv, 0)
		g.Servers = append(g.Servers, srv)
	}
	return g
}

func totalMachineBandwidth(m *smp.Machine) float64 {
	var sum float64
	for i := 0; i < m.Cores(); i++ {
		sum += m.Core(i).TotalReservedBandwidth()
	}
	return sum
}

// TestMigrateGroupConservesBandwidth is the first group-migration
// invariant: moving a multi-server unit changes where bandwidth is
// reserved, never how much.
func TestMigrateGroupConservesBandwidth(t *testing.T) {
	eng := sim.New()
	m := smp.New(eng, 4, 1)
	g := reservedGroup(t, m, 0, "bg", 0.1, 3)
	before := totalMachineBandwidth(m)
	loadSumBefore := 0.0
	for _, l := range m.Loads() {
		loadSumBefore += l
	}

	if err := m.Move(g, 0, m, 2, 0.3, nil); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if got := totalMachineBandwidth(m); math.Abs(got-before) > 1e-12 {
		t.Errorf("total reserved bandwidth changed: %.6f -> %.6f", before, got)
	}
	loadSumAfter := 0.0
	for _, l := range m.Loads() {
		loadSumAfter += l
	}
	if math.Abs(loadSumAfter-loadSumBefore) > 1e-9 {
		t.Errorf("total effective load changed: %.6f -> %.6f", loadSumBefore, loadSumAfter)
	}
	// The whole unit lives on the destination.
	for _, srv := range g.Servers {
		if !m.Core(2).Owns(srv) {
			t.Errorf("server %s not owned by the destination", srv.Name())
		}
	}
	if got := m.Core(0).TotalReservedBandwidth(); got != 0 {
		t.Errorf("origin still reserves %.3f", got)
	}
	if m.Migrations() != 1 {
		t.Errorf("Migrations() = %d, want 1 (a group is one migration)", m.Migrations())
	}
}

// TestMigrateGroupAllOrNothing is the second invariant: when the
// destination cannot admit the whole unit, nothing moves — not even
// the members that would fit individually.
func TestMigrateGroupAllOrNothing(t *testing.T) {
	eng := sim.New()
	m := smp.New(eng, 2, 1)
	g := reservedGroup(t, m, 0, "bg", 0.2, 3) // 0.6 aggregate
	// Core 1 has room for any single member (0.2) but not the unit.
	if err := m.Reserve(1, 0.5); err != nil {
		t.Fatal(err)
	}
	loadsBefore := m.Loads()

	if err := m.Move(g, 0, m, 1, 0.6, nil); err == nil {
		t.Fatal("partial-fit group migration accepted")
	}
	loadsAfter := m.Loads()
	for i := range loadsBefore {
		if loadsBefore[i] != loadsAfter[i] {
			t.Errorf("core %d load changed across rejected group migration: %v -> %v",
				i, loadsBefore[i], loadsAfter[i])
		}
	}
	for _, srv := range g.Servers {
		if !m.Core(0).Owns(srv) {
			t.Errorf("server %s left the origin despite rejection", srv.Name())
		}
	}
	if m.Migrations() != 0 {
		t.Errorf("Migrations() = %d after rejection", m.Migrations())
	}

	// The same unit fits once the blocker shrinks; rollback must not
	// have corrupted the accounts.
	m.Release(1, 0.4)
	if err := m.Move(g, 0, m, 1, 0.6, nil); err != nil {
		t.Fatalf("group migration after freeing room: %v", err)
	}
}

// TestMoveBatchClaimsWhatFits is the shape of a balancer batch: a
// cold core claims candidates in order, each admission-checked against
// its account as it fills up, so what no longer fits is skipped and the
// claiming core is never overloaded.
func TestMoveBatchClaimsWhatFits(t *testing.T) {
	eng := sim.New()
	m := smp.New(eng, 3, 1)
	if err := m.Reserve(2, 0.55); err != nil {
		t.Fatal(err)
	}
	var gs []sched.Group
	for i := 0; i < 4; i++ {
		gs = append(gs, reservedGroup(t, m, 0, "u", 0.2, 1))
	}
	var moved, arrived []int
	for i, g := range gs {
		if err := m.Move(g, 0, m, 2, 0.2, func() error { arrived = append(arrived, i); return nil }); err == nil {
			moved = append(moved, i)
		}
	}
	if len(moved) != 2 || moved[0] != 0 || moved[1] != 1 {
		t.Fatalf("moved %v, want [0 1]", moved)
	}
	if len(arrived) != 2 {
		t.Errorf("arrive ran %d times, want once per moved unit", len(arrived))
	}
	if got := m.Load(2); math.Abs(got-0.95) > 1e-9 {
		t.Errorf("claiming core at %.3f, want 0.95", got)
	}
	if got := m.Load(0); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("origin core at %.3f, want 0.4", got)
	}
	if m.Migrations() != 2 {
		t.Errorf("Migrations() = %d, want 2", m.Migrations())
	}
}

// TestMoveRollsBackOnArriveError: a failing arrive hook (the
// tuner-rehome seam) returns the unit to its origin, uncharges the
// destination and counts nothing; the next unit still moves.
func TestMoveRollsBackOnArriveError(t *testing.T) {
	eng := sim.New()
	m := smp.New(eng, 2, 1)
	g0 := reservedGroup(t, m, 0, "a", 0.2, 1)
	g1 := reservedGroup(t, m, 0, "b", 0.2, 1)
	if err := m.Move(g0, 0, m, 1, 0.2, func() error { return errRefused }); !errors.Is(err, errRefused) {
		t.Fatalf("Move = %v, want the arrive error", err)
	}
	if m.Migrations() != 0 {
		t.Errorf("Migrations() = %d after a rolled-back move", m.Migrations())
	}
	if err := m.Move(g1, 0, m, 1, 0.2, func() error { return nil }); err != nil {
		t.Fatalf("second move: %v", err)
	}
	if !m.Core(0).Owns(g0.Servers[0]) {
		t.Error("rolled-back unit not returned to its origin")
	}
	if !m.Core(1).Owns(g1.Servers[0]) {
		t.Error("surviving unit not on the claiming core")
	}
	if got := m.Load(0); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("origin at %.3f after rollback, want 0.2", got)
	}
	if got := m.Load(1); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("destination at %.3f, want 0.2", got)
	}
	if m.Migrations() != 1 {
		t.Errorf("Migrations() = %d, want 1", m.Migrations())
	}
}

var errRefused = errors.New("refused")
