package selftune

import (
	"testing"
)

// moveState is everything a refused move must leave as it was on one
// machine.
type moveState struct {
	loads       []float64
	granted     []float64
	tracerLen   []int
	owners      []int // per tracked server: owning core, -1 for none
	migrations  int
	machineMigr int
	handles     []*Handle
}

func captureMoveState(s *System, servers []*Server) moveState {
	st := moveState{
		migrations:  s.Migrations(),
		machineMigr: s.Machine().Migrations(),
		handles:     append([]*Handle(nil), s.Handles()...),
	}
	for i := 0; i < s.CPUs(); i++ {
		st.loads = append(st.loads, s.Machine().Load(i))
		st.granted = append(st.granted, s.Core(i).Supervisor().TotalGranted())
		st.tracerLen = append(st.tracerLen, s.CoreTracer(i).Len())
	}
	for _, srv := range servers {
		owner := -1
		for i := 0; i < s.CPUs(); i++ {
			if s.Core(i).Scheduler().Owns(srv) {
				owner = i
			}
		}
		st.owners = append(st.owners, owner)
	}
	return st
}

func (st moveState) diff(t *testing.T, name string, got moveState) {
	t.Helper()
	for i := range st.loads {
		if got.loads[i] != st.loads[i] {
			t.Errorf("%s core %d load %v, want %v", name, i, got.loads[i], st.loads[i])
		}
		if got.granted[i] != st.granted[i] {
			t.Errorf("%s core %d granted %v, want %v", name, i, got.granted[i], st.granted[i])
		}
		if got.tracerLen[i] != st.tracerLen[i] {
			t.Errorf("%s core %d tracer holds %d events, want %d", name, i, got.tracerLen[i], st.tracerLen[i])
		}
	}
	for i := range st.owners {
		if got.owners[i] != st.owners[i] {
			t.Errorf("%s server %d owned by core %d, want %d", name, i, got.owners[i], st.owners[i])
		}
	}
	if got.migrations != st.migrations || got.machineMigr != st.machineMigr {
		t.Errorf("%s migrations %d/%d, want %d/%d", name,
			got.migrations, got.machineMigr, st.migrations, st.machineMigr)
	}
	if len(got.handles) != len(st.handles) {
		t.Fatalf("%s lists %d handles, want %d", name, len(got.handles), len(st.handles))
	}
	for i := range st.handles {
		if got.handles[i] != st.handles[i] {
			t.Errorf("%s handle %d changed", name, i)
		}
	}
}

// TestRefusedMoveChangesNothing drives both refusal points of the one
// move path — admission at a full destination, and a destination
// supervisor that refuses the tuner's floor after the server has
// already been adopted there — through Migrate and Transfer, on
// single-engine and laned machines. A refused move must leave both
// machines exactly as they were, and the workload must keep running.
func TestRefusedMoveChangesNothing(t *testing.T) {
	// At U_lub 0.95 a blocker registered with a 0.95 floor leaves no
	// room for the tuner's floor on that core's supervisor.
	full := func(s *System, core int) {
		if err := s.Machine().Reserve(core, 0.9); err != nil {
			t.Fatal(err)
		}
	}
	refusing := func(s *System, core int) {
		if _, ok := s.Core(core).Supervisor().Register("blocker", 0.95); !ok {
			t.Fatal("blocker registration refused")
		}
	}
	cases := []struct {
		name     string
		block    func(*System, int)
		transfer bool
	}{
		{"migrate to a full core", full, false},
		{"migrate to a refusing supervisor", refusing, false},
		{"transfer to a full machine", full, true},
		{"transfer to a refusing supervisor", refusing, true},
	}
	for _, laned := range []bool{false, true} {
		for _, tc := range cases {
			name := tc.name
			if laned {
				name += " (laned)"
			}
			t.Run(name, func(t *testing.T) {
				opts := []Option{WithCPUs(2), WithULub(0.95)}
				if laned {
					opts = append(opts, WithCoreParallelism(1))
				}
				a, err := NewSystem(append(opts, WithSeed(1))...)
				if err != nil {
					t.Fatal(err)
				}
				defer a.Close()
				b, err := NewSystem(append(opts, WithSeed(2), WithPIDOffset(1_000_000_000))...)
				if err != nil {
					t.Fatal(err)
				}
				defer b.Close()
				h, err := a.Spawn("video", OnCore(0), SpawnHint(0.4), SpawnUtil(0.2),
					Tuned(DefaultTunerConfig()))
				if err != nil {
					t.Fatal(err)
				}
				h.Start(0)
				a.Run(500 * Millisecond)
				b.Run(500 * Millisecond)

				if tc.transfer {
					tc.block(b, 0)
					tc.block(b, 1)
				} else {
					tc.block(a, 1)
				}
				servers := []*Server{h.Tuner().Server()}
				beforeA, beforeB := captureMoveState(a, servers), captureMoveState(b, servers)
				if tc.transfer {
					if _, err := a.Transfer(h, b); err == nil {
						t.Fatal("transfer accepted")
					}
				} else if err := a.Migrate(h, 1); err == nil {
					t.Fatal("migration accepted")
				}
				beforeA.diff(t, "source", captureMoveState(a, servers))
				beforeB.diff(t, "destination", captureMoveState(b, servers))
				if h.Core().Index != 0 || h.sys != a || h.ctx.sys != a || h.ctx.core != 0 {
					t.Errorf("handle moved: core %d", h.Core().Index)
				}

				frames := h.Player().Frames()
				a.Run(500 * Millisecond)
				b.Run(500 * Millisecond)
				if got := h.Player().Frames(); got <= frames {
					t.Errorf("workload stalled after the refused move: %d frames, had %d", got, frames)
				}
			})
		}
	}
}

// FuzzMoveSequences drives random spawn / start / run / migrate /
// transfer / despawn sequences over two 2-core machines — one
// single-engine, one laned — kept at the same simulated instant, and
// checks the machine invariants after every operation: each core's
// scheduler is internally consistent, no supervisor grants more than
// its bound, no core's placement account exceeds it, and every live
// handle's servers belong to the core its System says it runs on.
// Inputs found by fuzzing live under testdata/fuzz and run with the
// seeds.
func FuzzMoveSequences(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 5, 0, 9, 0, 6, 3, 5, 1, 7, 0, 5, 2},
		{0, 1, 1, 0, 2, 1, 4, 0, 4, 1, 4, 2, 5, 3, 6, 0, 6, 1, 7, 2, 5, 0},
		{3, 0, 3, 1, 4, 0, 4, 1, 5, 2, 7, 0, 7, 1, 5, 1, 6, 2, 8, 0, 5, 0},
		{2, 0, 2, 0, 4, 0, 4, 1, 5, 1, 6, 0, 6, 1, 7, 0, 7, 1, 5, 3, 8, 1},
		{0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 4, 1, 4, 2, 4, 3, 5, 2, 7, 0, 7, 2, 7, 4, 5, 1},
		{1, 1, 3, 1, 0, 1, 2, 1, 4, 0, 4, 1, 4, 2, 4, 3, 5, 1, 7, 1, 7, 3, 6, 5, 8, 2, 5, 2},
		{0, 0, 0, 1, 3, 0, 2, 1, 4, 0, 4, 1, 4, 2, 4, 3, 5, 0,
			6, 0, 6, 2, 6, 5, 6, 7, 5, 1, 7, 0, 6, 4, 6, 6, 7, 1, 6, 1, 5, 2},
	} {
		f.Add(seed)
	}
	kinds := []struct {
		kind string
		opts []SpawnOption
	}{
		{"video", []SpawnOption{SpawnUtil(0.2), Tuned(DefaultTunerConfig())}},
		{"mp3", []SpawnOption{SpawnUtil(0.1)}},
		{"rtload", []SpawnOption{SpawnUtil(0.15), SpawnCount(2)}},
		{"webserver", []SpawnOption{SpawnUtil(0.1)}},
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		a, err := NewSystem(WithSeed(1), WithCPUs(2))
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewSystem(WithSeed(2), WithCPUs(2), WithCoreParallelism(1),
			WithPIDOffset(1_000_000_000))
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		systems := []*System{a, b}
		var handles []*Handle // every handle ever spawned, live or not
		started := map[*Handle]bool{}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%9, int(ops[i+1])
			pick := func() *Handle {
				if len(handles) == 0 {
					return nil
				}
				return handles[arg%len(handles)]
			}
			switch op {
			case 0, 1, 2, 3:
				sys := systems[arg%2]
				k := kinds[op]
				if h, err := sys.Spawn(k.kind, k.opts...); err == nil {
					handles = append(handles, h)
				}
			case 4:
				if h := pick(); h != nil && h.sys != nil && !started[h] {
					h.Start(0)
					started[h] = true
				}
			case 5:
				d := Duration(1+arg%4) * 50 * Millisecond
				a.Run(d)
				b.Run(d)
			case 6:
				if h := pick(); h != nil && h.sys != nil {
					// Mostly the other core; now and then its own, which
					// must be refused without effect.
					to := 1 - h.Core().Index
					if arg%4 == 3 {
						to = h.Core().Index
					}
					_ = h.sys.Migrate(h, to)
				}
			case 7:
				if h := pick(); h != nil && h.sys != nil {
					dst := a
					if h.sys == a {
						dst = b
					}
					_, _ = h.sys.Transfer(h, dst)
				}
			case 8:
				if h := pick(); h != nil && h.sys != nil {
					_ = h.sys.Despawn(h)
				}
			}
			checkMoveInvariants(t, i/2, systems)
		}
	})
}

func checkMoveInvariants(t *testing.T, step int, systems []*System) {
	t.Helper()
	for si, s := range systems {
		for c := 0; c < s.CPUs(); c++ {
			if err := s.Core(c).Scheduler().Validate(); err != nil {
				t.Fatalf("op %d: machine %d core %d: %v", step, si, c, err)
			}
			sup := s.Core(c).Supervisor()
			if g := sup.TotalGranted(); g > sup.ULub()+1e-9 {
				t.Fatalf("op %d: machine %d core %d grants %v over U_lub %v", step, si, c, g, sup.ULub())
			}
			// Load is the larger of the hint account and the reserved
			// bandwidth. The supervisor compresses its other clients'
			// grants only at their next request, so Σ Q/T may overshoot
			// the bound for a tuner period with no move involved; the
			// bound holds for the hint account, which Move charges.
			reserved := s.Core(c).Scheduler().TotalReservedBandwidth()
			if l := s.Machine().Load(c); l > sup.ULub()+1e-9 && l > reserved {
				t.Fatalf("op %d: machine %d core %d placement load %v over U_lub %v", step, si, c, l, sup.ULub())
			}
		}
		for _, h := range s.Handles() {
			if h.sys != s {
				t.Fatalf("op %d: machine %d lists %q, which belongs to another System", step, si, h.Name())
			}
			sd := h.Core().Scheduler()
			for _, srv := range s.unitFor(h).group.Servers {
				if !sd.Owns(srv) {
					t.Fatalf("op %d: machine %d: server %s of %q not owned by its core %d",
						step, si, srv.Name(), h.Name(), h.Core().Index)
				}
			}
		}
	}
}
