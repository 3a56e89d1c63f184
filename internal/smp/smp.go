// Package smp implements the paper's Sec. 6 multicore direction in its
// simplest sound form: a partitioned multiprocessor. Each core runs
// its own EDF+CBS scheduler with its own supervisor (so the per-core
// Σ Q/T ≤ U_lub bound of Eq. 1 applies unchanged), and a partitioner
// places applications on cores by worst-fit decreasing over reserved
// bandwidth — the classic heuristic that leaves every core the most
// headroom for the feedback loops to adapt into.
//
// On top of the partitioned baseline the machine supports migration:
// Move atomically releases a migration unit (CBS servers, their tasks
// and their placement hint) from one core and re-places it on another
// core of the same machine or of another one, using the sched
// package's DetachAll/AdoptAll to carry the budget/deadline state
// across. The paper calls the cooperation between load balancing and
// adaptive reservations "an open research issue"; the policies built
// on this mechanism live in the selftune balancer.
//
// Concurrency: the placement accounts are mutex-guarded, so
// interleaved Place/Reserve/Release calls never corrupt each other or
// leak an orphaned hint. The effective-load reads underneath them also
// consult live scheduler state, which only the simulation goroutine
// may touch — so admission, like everything else here, must be driven
// from the simulation goroutine (or while the engine is idle); the
// mutex is about account integrity, not about racing the simulation.
package smp

import (
	"fmt"
	"sync"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/supervisor"
)

// Machine is a set of independent cores sharing one simulated clock.
type Machine struct {
	engine *sim.Engine
	cores  []*sched.Scheduler
	sups   []*supervisor.Supervisor

	mu         sync.Mutex
	placed     []float64 // bandwidth hints accepted per core
	migrations int
	crossNode  int // migrations that crossed a topology domain

	topo     Topology
	domainOf []int // per-core domain index, aligned with cores
}

// New builds a machine with n cores, each supervised at ulub. All
// cores share one engine: events across cores interleave in global
// (when, seq) order on a single goroutine.
func New(engine *sim.Engine, n int, ulub float64) *Machine {
	return NewOffset(engine, n, ulub, 0)
}

// NewOffset builds a machine like New but shifts every core's PID base
// by pidOffset. Fleets of machines that exchange tasks (live
// cross-machine migration carries syscall evidence between tracers)
// give each machine a disjoint offset so per-PID drains never mix
// tasks from different machines; offset 0 is the single-machine
// default.
func NewOffset(engine *sim.Engine, n int, ulub float64, pidOffset int) *Machine {
	if n <= 0 {
		panic("smp: need at least one core")
	}
	m := &Machine{engine: engine, placed: make([]float64, n), domainOf: make([]int, n)}
	for i := 0; i < n; i++ {
		m.cores = append(m.cores, sched.New(coreConfig(engine, i, pidOffset)))
		m.sups = append(m.sups, supervisor.New(ulub))
	}
	return m
}

// NewLaned builds a machine whose cores run on separate engine lanes:
// core i's scheduler schedules exclusively on engines[i], so the lanes
// can advance concurrently between causality fences (sim.EngineGroup).
// Engine() returns lane 0; cross-core operations (Move, LoadsInto)
// are only legal while every lane rests at the same fence
// instant. Migration carries a reservation's timers across lanes:
// sched.Detach/Adopt already cancel and re-arm on each scheduler's own
// engine, which is exactly lane-correct at a fence.
func NewLaned(engines []*sim.Engine, ulub float64) *Machine {
	return NewLanedOffset(engines, ulub, 0)
}

// NewLanedOffset builds a laned machine like NewLaned but shifts every
// core's PID base by pidOffset (see NewOffset).
func NewLanedOffset(engines []*sim.Engine, ulub float64, pidOffset int) *Machine {
	if len(engines) == 0 {
		panic("smp: need at least one core")
	}
	n := len(engines)
	m := &Machine{engine: engines[0], placed: make([]float64, n), domainOf: make([]int, n)}
	for i, eng := range engines {
		if eng == nil {
			panic("smp: NewLaned with a nil engine lane")
		}
		m.cores = append(m.cores, sched.New(coreConfig(eng, i, pidOffset)))
		m.sups = append(m.sups, supervisor.New(ulub))
	}
	return m
}

// coreConfig is the per-core scheduler configuration shared by both
// constructors: disjoint PID ranges per core (the cores share — or in
// laned mode, migrate trace evidence between — syscall tracers, and
// per-PID drains must never mix tasks from different cores; core 0 of
// an unshifted machine keeps the uniprocessor default base), and
// pooled job storage (every job a machine workload completes is
// recycled generation-tagged). pidOffset shifts the whole machine's
// PID space so fleets stay disjoint machine-to-machine.
func coreConfig(engine *sim.Engine, i, pidOffset int) sched.Config {
	return sched.Config{Engine: engine, PIDBase: pidOffset + 1000 + i*1_000_000, RecycleJobs: true}
}

// Cores returns the number of cores.
func (m *Machine) Cores() int { return len(m.cores) }

// Core returns core i's scheduler.
func (m *Machine) Core(i int) *sched.Scheduler { return m.cores[i] }

// Supervisor returns core i's supervisor.
func (m *Machine) Supervisor(i int) *supervisor.Supervisor { return m.sups[i] }

// Engine returns the shared simulation engine.
func (m *Machine) Engine() *sim.Engine { return m.engine }

// Place picks a core for an application expected to need the given
// bandwidth, worst-fit (see Pick), and records the hint. It returns
// the core index, or an error when no core has room.
func (m *Machine) Place(bandwidth float64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	best, err := m.pick(bandwidth)
	if err != nil {
		return 0, err
	}
	m.placed[best] += bandwidth
	return best, nil
}

// Pick returns the core Place would choose for the given bandwidth —
// the least-loaded core with room for it — without charging it, for
// callers that charge through Move instead. The load metric combines
// accepted hints with the cores' actually reserved bandwidth, so
// placement stays meaningful after the tuners have adapted away from
// their hints.
func (m *Machine) Pick(bandwidth float64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pick(bandwidth)
}

// pick is the worst-fit choice shared by Place and Pick. The caller
// must hold m.mu.
func (m *Machine) pick(bandwidth float64) (int, error) {
	if bandwidth <= 0 || bandwidth > 1 {
		return 0, fmt.Errorf("smp: bandwidth hint %v out of (0,1]", bandwidth)
	}
	best, bestLoad := -1, 2.0
	for i := range m.cores {
		load := m.load(i)
		if load+bandwidth <= m.sups[i].ULub()+1e-9 && load < bestLoad {
			best, bestLoad = i, load
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("smp: no core fits %.3f (loads %v)", bandwidth, m.loads())
	}
	return best, nil
}

// Reserve records a bandwidth hint against a specific core, for
// callers that pin placement instead of letting Place choose. Like
// Place it rejects hints the core has no room for.
func (m *Machine) Reserve(core int, bandwidth float64) error {
	if core < 0 || core >= len(m.cores) {
		return fmt.Errorf("smp: core %d out of [0,%d)", core, len(m.cores))
	}
	if bandwidth <= 0 || bandwidth > 1 {
		return fmt.Errorf("smp: bandwidth hint %v out of (0,1]", bandwidth)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if load := m.load(core); load+bandwidth > m.sups[core].ULub()+1e-9 {
		return fmt.Errorf("smp: core %d at load %.3f cannot fit %.3f", core, load, bandwidth)
	}
	m.placed[core] += bandwidth
	return nil
}

// Release returns a previously accepted bandwidth hint (from Place or
// Reserve) to core i, for callers whose placement fell through before
// the application materialised. Out-of-range arguments are ignored;
// the hint account never goes negative.
func (m *Machine) Release(core int, bandwidth float64) {
	if core < 0 || core >= len(m.cores) || bandwidth <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.placed[core] -= bandwidth
	m.clamp(core)
}

// Move carries the migration unit g — CBS servers with their attached
// tasks and live budget/deadline state, plus bare best-effort tasks —
// from core `from` of m to core `to` of dst, together with `hint` of
// placement-account bandwidth. dst is m itself for a cross-core
// migration, or another machine resting at the same simulated instant
// for a live transfer between machines. It is the one move primitive:
// every migration, balancer steal and cross-machine transfer runs
// through it, in five steps.
//
//  1. Admission: the unit arrives with the larger of its hint and its
//     summed reserved bandwidth, and that charge must fit under the
//     destination supervisor's bound in one check. The full charge
//     lands on the destination account at once (the reserved half
//     only materialises at AdoptAll), so an interleaved Place cannot
//     fill the just-checked room.
//  2. The unit detaches from the source scheduler and is adopted by
//     the destination one (sched.DetachAll/AdoptAll).
//  3. arrive, if non-nil, runs with the unit on its destination — the
//     caller's chance to re-register a supervisor client of the
//     reservation (selftune rehomes the unit's tuner here).
//  4. Any error in steps 2–3 rolls back in one place: the unit returns
//     to the source scheduler and the charge is taken off the
//     destination again. The source account is only touched on
//     success, so a refused move leaves both machines as they were.
//  5. On success the hint leaves the source account, the destination
//     keeps it and the admission overcharge shrinks back, and a move
//     within one machine counts as a migration (a cross-domain one
//     also as a cross-node migration).
//
// Like everything touching live scheduler state, Move must run on the
// simulation goroutine (for a laned machine: at a causality fence).
func (m *Machine) Move(g sched.Group, from int, dst *Machine, to int, hint float64, arrive func() error) error {
	if dst == nil {
		return fmt.Errorf("smp: move to a nil machine")
	}
	if from < 0 || from >= len(m.cores) || to < 0 || to >= len(dst.cores) {
		return fmt.Errorf("smp: move cores %d -> %d out of [0,%d) -> [0,%d)",
			from, to, len(m.cores), len(dst.cores))
	}
	if dst == m && from == to {
		return fmt.Errorf("smp: move within core %d", from)
	}
	if g.Empty() {
		return fmt.Errorf("smp: move of an empty group")
	}
	for _, srv := range g.Servers {
		if srv == nil || !m.cores[from].Owns(srv) {
			return fmt.Errorf("smp: moving server not owned by core %d", from)
		}
	}
	if hint < 0 {
		hint = 0
	}
	charge := hint
	if bw := g.Bandwidth(); bw > charge {
		charge = bw
	}
	// A move within a machine has always charged the destination as
	// hint then overcharge, a transfer between machines as one sum. The
	// two orders round differently, and one ulp can flip a later
	// worst-fit tie, so each keeps its own; the rollback subtracts the
	// same parts in reverse.
	parts := [2]float64{charge, 0}
	if dst == m {
		parts = [2]float64{hint, charge - hint}
	}
	dst.mu.Lock()
	if load := dst.load(to); load+charge > dst.sups[to].ULub()+1e-9 {
		dst.mu.Unlock()
		return fmt.Errorf("smp: core %d at load %.3f cannot fit %.3f moving from core %d",
			to, load, charge, from)
	}
	dst.placed[to] += parts[0]
	dst.placed[to] += parts[1]
	dst.mu.Unlock()

	detached, adopted := false, false
	err := m.cores[from].DetachAll(g)
	if err == nil {
		detached = true
		err = dst.cores[to].AdoptAll(g)
	}
	if err == nil {
		adopted = true
		if arrive != nil {
			err = arrive()
		}
	}
	if err != nil {
		// Detach/Adopt of a group that was just validated cannot fail
		// on the simulation goroutine; should the way back fail anyway,
		// the reservations would be stranded on no core, which no
		// caller can repair.
		var rb error
		if adopted {
			rb = dst.cores[to].DetachAll(g)
		}
		if rb == nil && detached {
			rb = m.cores[from].AdoptAll(g)
		}
		if rb != nil {
			panic(fmt.Sprintf("smp: move stranded a group: %v after %v", rb, err))
		}
		dst.mu.Lock()
		dst.placed[to] -= parts[1]
		dst.placed[to] -= parts[0]
		dst.clamp(to)
		dst.mu.Unlock()
		return fmt.Errorf("smp: move: %w", err)
	}

	m.mu.Lock()
	m.placed[from] -= hint
	m.clamp(from)
	m.mu.Unlock()
	dst.mu.Lock()
	dst.placed[to] -= charge - hint
	dst.clamp(to)
	if dst == m {
		m.migrations++
		if m.domainAt(from) != m.domainAt(to) {
			m.crossNode++
		}
	}
	dst.mu.Unlock()
	return nil
}

// clamp keeps core i's hint account non-negative. The caller must hold
// m.mu.
func (m *Machine) clamp(i int) {
	if m.placed[i] < 0 {
		m.placed[i] = 0
	}
}

// Migrations returns the number of successful moves within the
// machine (a rolled-back move counts nothing, a transfer to another
// machine is not a migration of either; selftune's System.Migrations
// counts workload moves instead).
func (m *Machine) Migrations() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.migrations
}

// load returns the effective load of core i: the larger of the hint
// account and the actually reserved bandwidth.
func (m *Machine) load(i int) float64 {
	reserved := m.cores[i].TotalReservedBandwidth()
	if m.placed[i] > reserved {
		return m.placed[i]
	}
	return reserved
}

// loads returns the effective load of every core.
func (m *Machine) loads() []float64 {
	out := make([]float64, len(m.cores))
	for i := range m.cores {
		out[i] = m.load(i)
	}
	return out
}

// Loads returns a snapshot of the per-core effective loads.
func (m *Machine) Loads() []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.loads()
}

// LoadsInto appends a snapshot of the per-core effective loads to dst
// and returns the extended slice — the allocation-free form of Loads
// for periodic samplers (pass dst[:0] to reuse its storage).
func (m *Machine) LoadsInto(dst []float64) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.cores {
		dst = append(dst, m.load(i))
	}
	return dst
}

// Load returns core i's effective load.
func (m *Machine) Load(i int) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.load(i)
}

// TotalUtilization returns the machine-wide fraction of busy CPU time.
func (m *Machine) TotalUtilization() float64 {
	var sum float64
	for _, c := range m.cores {
		sum += c.Utilization()
	}
	return sum / float64(len(m.cores))
}
