package main

import (
	"fmt"
	"math"

	"repro/internal/rng"
	wl "repro/internal/workload"
	"repro/selftune"
	"repro/selftune/cluster"
	"repro/selftune/telemetry"
)

// instance is one set-up repetition of a workload, advanced chunk by
// chunk by the measuring loop. Only step is timed.
type instance interface {
	// step advances the simulation by one chunk.
	step(rec *recorder)
	// done reports whether the horizon is reached.
	done() bool
	// simSeconds returns the simulated time advanced so far.
	simSeconds() float64
	// afterStep checks the invariants that must hold at every chunk
	// boundary and, when traced, samples the public counters.
	afterStep(traced bool) error
	// finish runs the end-of-run checks and extracts the outcomes.
	finish() (outcome, error)
	// counters returns the public per-layer counters of the run.
	counters() counters
	// workers returns how many goroutines advance machines, and lanes
	// within a machine.
	workers() (machine, lane int)
	close()
}

// workload is a named scenario the benchmark can run.
type workload struct {
	name  string
	build func(seed uint64, rec *recorder) (instance, error)
	// cases is how many differently seeded instances one run pools its
	// simulated outcomes over.
	cases int
	// setupBatch is how many builds one set-up sample times.
	setupBatch int
	// checkPass, if set, checks the outcomes pooled over one pass.
	checkPass func(outcome) error
}

var workloads = []workload{
	{name: "tuned_machine", build: buildTunedMachine, cases: 36, setupBatch: 16},
	{name: "fleet_surge", build: buildFleetSurge, cases: 64, setupBatch: 1},
	{name: "fleet_rescue", build: buildFleetRescue, cases: 72, setupBatch: 1, checkPass: rescueSized},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome holds the simulated results of one run. They depend only on
// the seed, so every repetition must reproduce them exactly.
type outcome struct {
	attempted, failed int64                      // frames or arrivals, and those that failed
	iftDevMs          []float64                  // |inter-frame time - period| per frame
	latency           telemetry.LatencyHistogram // request latencies
	reservedBW        float64                    // core-equivalents
	tuners, locked    int
	sloScored         int64
	sloWithin         float64
	replacements      int
	liveMoves         int
	liveApplies       bool // re-placements could carry state (every machine detailed)
	steps             uint64
	digest            uint64
}

// merge pools the outcomes of another case into o.
func (o *outcome) merge(x outcome) {
	o.attempted += x.attempted
	o.failed += x.failed
	o.iftDevMs = append(o.iftDevMs, x.iftDevMs...)
	o.latency.Merge(x.latency)
	o.reservedBW += x.reservedBW
	o.tuners += x.tuners
	o.locked += x.locked
	o.sloScored += x.sloScored
	o.sloWithin += x.sloWithin
	o.replacements += x.replacements
	o.liveMoves += x.liveMoves
	o.liveApplies = x.liveApplies
	o.steps += x.steps
	o.digest = fnvWords([]uint64{o.digest, x.digest})
}

// counters are the public per-layer counters read at chunk boundaries
// and at the end of a run.
type counters struct {
	activations  int64 // tuner activations
	grants       int64 // supervisor grants
	compressed   int64 // of them, compressed
	recorded     int64 // syscalls the tracers recorded
	dropped      int64 // of them, overwritten before being read
	switches     int64 // context switches
	exhaustions  int64 // CBS budget exhaustions
	fences       uint64
	steps        uint64
	replacements int64
	residentSum  float64
	residentN    int64
}

func (c *counters) add(o counters) {
	c.activations += o.activations
	c.grants += o.grants
	c.compressed += o.compressed
	c.recorded += o.recorded
	c.dropped += o.dropped
	c.switches += o.switches
	c.exhaustions += o.exhaustions
	c.fences += o.fences
	c.steps += o.steps
	c.replacements += o.replacements
	c.residentSum += o.residentSum
	c.residentN += o.residentN
}

// exhaustTracker accumulates CBS budget exhaustions across chunk
// boundaries. Servers come and go with their jobs, so each server's
// cumulative count is differenced against the last reading.
type exhaustTracker struct {
	last  map[*selftune.Server]int
	total int64
}

func (t *exhaustTracker) sample(sys *selftune.System) {
	if t.last == nil {
		t.last = map[*selftune.Server]int{}
	}
	for i := 0; i < sys.CPUs(); i++ {
		for _, srv := range sys.Core(i).Scheduler().Servers() {
			n := srv.Stats().Exhaustions
			t.total += int64(n - t.last[srv])
			t.last[srv] = n
		}
	}
}

// machineCounters adds one machine's cumulative counters to c.
func machineCounters(sys *selftune.System, c *counters) {
	for i := 0; i < sys.CPUs(); i++ {
		core := sys.Core(i)
		g, comp, _ := core.Supervisor().Stats()
		c.grants += int64(g)
		c.compressed += int64(comp)
		c.switches += int64(core.Scheduler().ContextSwitches())
		if sys.Tracer() == nil {
			tr := sys.CoreTracer(i)
			c.recorded += int64(tr.Recorded())
			c.dropped += int64(tr.Dropped())
		}
	}
	if tr := sys.Tracer(); tr != nil {
		c.recorded += int64(tr.Recorded())
		c.dropped += int64(tr.Dropped())
	}
	c.fences += sys.Fences()
	c.steps += sys.Steps()
}

// checkBandwidth verifies that no core's supervisor grants more than
// its utilisation bound.
func checkBandwidth(sys *selftune.System, machine int) error {
	for i := 0; i < sys.CPUs(); i++ {
		sup := sys.Core(i).Supervisor()
		if g := sup.TotalGranted(); g > sup.ULub()+1e-9 {
			return fmt.Errorf("machine %d core %d: granted bandwidth %.6f exceeds U_lub %.6f", machine, i, g, sup.ULub())
		}
	}
	return nil
}

// validateMachine runs the scheduler's invariant check on every core.
func validateMachine(sys *selftune.System, machine int) error {
	for i := 0; i < sys.CPUs(); i++ {
		if err := sys.Core(i).Scheduler().Validate(); err != nil {
			return fmt.Errorf("machine %d core %d: %w", machine, i, err)
		}
	}
	return checkBandwidth(sys, machine)
}

// frameStats folds one player's frames into o: the deviation of every
// inter-frame time from the period, the frames that failed (an
// inter-frame time above 1.5 periods, or a frame still undisplayed at
// the end other than the last two released), and a digest of both.
func frameStats(p *selftune.Player, o *outcome, d *digest) {
	period := p.Config().Period
	ifts := p.InterFrameTimes()
	var sum int64
	for _, ift := range ifts {
		o.iftDevMs = append(o.iftDevMs, math.Abs(float64(ift-period))/1e6)
		if float64(ift) > 1.5*float64(period) {
			o.failed++
		}
		sum += int64(ift)
	}
	released := int64(p.Frames())
	shown := int64(len(p.Finishes()))
	if backlog := released - shown - 2; backlog > 0 {
		o.failed += backlog
	}
	o.attempted += released
	d.i64(released)
	d.i64(shown)
	d.i64(sum)
}

// ---------------------------------------------------------------------
// tuned_machine: one multi-core System on the single-engine path, three
// tuned players per core (25 fps video, 30 fps video, the 32.5 Hz mp3
// clock) over a hard rtload background, no observers attached.

const (
	tunedCores   = 4
	tunedHorizon = 6 * selftune.Second
	tunedChunk   = 200 * selftune.Millisecond
)

type tunedPlayer struct {
	h     *selftune.Handle
	rate  float64 // true frame rate, Hz
	start selftune.Time
}

type tunedMachine struct {
	sys     *selftune.System
	players []tunedPlayer
	elapsed selftune.Duration
	ex      exhaustTracker
}

func buildTunedMachine(seed uint64, rec *recorder) (instance, error) {
	in := rng.New(seed ^ 0x7475_6e65_645f_6d63) // the benchmark's own input stream
	sp := rec.begin("selftune.NewSystem")
	sys, err := selftune.NewSystem(
		selftune.WithSeed(seed),
		selftune.WithCPUs(tunedCores),
		selftune.WithULub(0.95),
	)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	m := &tunedMachine{sys: sys}
	spawn := func(kind string, opts ...selftune.SpawnOption) (*selftune.Handle, error) {
		sp := rec.begin("selftune.Spawn")
		defer rec.end(sp)
		return sys.Spawn(kind, opts...)
	}
	cfg := selftune.DefaultTunerConfig()
	for c := 0; c < tunedCores; c++ {
		if _, err := spawn("rtload", selftune.OnCore(c), selftune.SpawnCount(2),
			selftune.SpawnUtil(in.Uniform(0.20, 0.25))); err != nil {
			return nil, err
		}
		v25, err := spawn("video", selftune.OnCore(c), selftune.Tuned(cfg),
			selftune.SpawnUtil(in.Uniform(0.20, 0.26)))
		if err != nil {
			return nil, err
		}
		util := in.Uniform(0.20, 0.26)
		pc := wl.VideoPlayerConfig(fmt.Sprintf("video30-%d", c), util)
		pc.Period = selftune.Second / 30
		pc.MeanDemand = selftune.Duration(util * float64(pc.Period))
		v30, err := spawn("player", selftune.OnCore(c), selftune.Tuned(cfg), selftune.SpawnPlayer(pc))
		if err != nil {
			return nil, err
		}
		mp3, err := spawn("mp3", selftune.OnCore(c), selftune.Tuned(cfg))
		if err != nil {
			return nil, err
		}
		m.players = append(m.players,
			tunedPlayer{h: v25, rate: 25},
			tunedPlayer{h: v30, rate: 30},
			tunedPlayer{h: mp3, rate: 32.5})
	}
	for _, h := range sys.Handles() {
		at := selftune.Time(in.Int63n(int64(500 * selftune.Millisecond)))
		h.Start(at)
		for i := range m.players {
			if m.players[i].h == h {
				m.players[i].start = at
			}
		}
	}
	return m, nil
}

func (m *tunedMachine) step(rec *recorder) {
	sp := rec.begin("selftune.System.Run")
	m.sys.Run(tunedChunk)
	rec.end(sp)
	m.elapsed += tunedChunk
}

func (m *tunedMachine) done() bool          { return m.elapsed >= tunedHorizon }
func (m *tunedMachine) simSeconds() float64 { return m.elapsed.Seconds() }
func (m *tunedMachine) close()              { m.sys.Close() }
func (m *tunedMachine) workers() (int, int) { return 1, m.sys.Workers() }

func (m *tunedMachine) afterStep(traced bool) error {
	if traced {
		m.ex.sample(m.sys)
	}
	return checkBandwidth(m.sys, 0)
}

func (m *tunedMachine) finish() (outcome, error) {
	var o outcome
	if err := validateMachine(m.sys, 0); err != nil {
		return o, err
	}
	var d digest
	for _, tp := range m.players {
		p, tuner := tp.h.Player(), tp.h.Tuner()
		frameStats(p, &o, &d)
		// A frame's response time runs from its nominal release on the
		// player's grid (start + k periods) to its decode completion;
		// the player's own deadline for it is one period. Frames are
		// the machine's requests.
		period := p.Config().Period
		for k, fin := range p.Finishes() {
			resp := fin.Sub(tp.start.Add(selftune.Duration(k) * period))
			o.latency.Observe(resp)
			if resp <= period {
				o.sloWithin++
			}
			o.sloScored++
		}
		det := tuner.DetectedFrequency()
		o.tuners++
		if lockedOn(det, tp.rate) {
			o.locked++
		}
		bw := tuner.Server().Bandwidth()
		o.reservedBW += bw
		d.f64(det)
		d.f64(bw)
		d.i64(int64(len(tuner.Snapshots())))
	}
	d.i64(int64(o.latency.Quantile(0.99)))
	o.steps = m.sys.Steps()
	d.u64(o.steps)
	o.digest = d.sum()
	return o, nil
}

func (m *tunedMachine) counters() counters {
	var c counters
	machineCounters(m.sys, &c)
	for _, tp := range m.players {
		c.activations += int64(len(tp.h.Tuner().Snapshots()))
	}
	c.exhaustions = m.ex.total
	return c
}

// lockedOn reports whether a detected rate is the true rate or an
// integer multiple of it, within 2%.
func lockedOn(detected, truth float64) bool {
	if detected <= 0 || truth <= 0 {
		return false
	}
	k := math.Round(detected / truth)
	if k < 1 {
		return false
	}
	return math.Abs(detected-k*truth) <= 0.02*k*truth
}

// ---------------------------------------------------------------------
// The fleets.

// fleetSpec describes a fleet scenario.
type fleetSpec struct {
	machines, cores, detail int
	horizon                 selftune.Duration
	opts                    []cluster.Option
	realms                  func(capacity float64, in *rng.Source) []cluster.RealmConfig
	surge                   []string // realms whose rate triples for the middle third
	slo                     []string // realms whose requests are scored against their SLO
	requestsFrom            string   // "" = every detailed machine's requests, else this realm's
}

type fleet struct {
	spec    fleetSpec
	c       *cluster.Cluster
	surge   []*cluster.Realm
	base    []float64
	elapsed selftune.Duration
	tick    selftune.Duration

	players map[*selftune.Player]bool
	order   []*selftune.Player // discovery order, deterministic
	ex      exhaustTracker
	resSum  float64
	resN    int64
	bwSum   float64 // detailed machines' server bandwidth, summed over ticks
	bwN     int64
}

const fleetTick = 100 * selftune.Millisecond

func buildFleet(spec fleetSpec, seed uint64, rec *recorder) (instance, error) {
	in := rng.New(seed ^ 0x666c_6565_745f_6273)
	opts := append([]cluster.Option{
		cluster.WithSeed(seed),
		cluster.WithMachines(spec.machines),
		cluster.WithCores(spec.cores),
		cluster.WithDetail(spec.detail),
		cluster.WithTick(fleetTick),
		cluster.WithRequestStats(),
	}, spec.opts...)
	sp := rec.begin("cluster.New")
	c, err := cluster.New(opts...)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	f := &fleet{spec: spec, c: c, tick: fleetTick, players: map[*selftune.Player]bool{}}
	for _, cfg := range spec.realms(c.Capacity(), in) {
		sp := rec.begin("cluster.AddRealm")
		r, err := c.AddRealm(cfg)
		rec.end(sp)
		if err != nil {
			c.Close()
			return nil, err
		}
		for _, name := range spec.surge {
			if name == cfg.Name {
				f.surge = append(f.surge, r)
				f.base = append(f.base, cfg.Rate)
			}
		}
	}
	return f, nil
}

func (f *fleet) step(rec *recorder) {
	third := f.spec.horizon / 3
	switch f.elapsed {
	case third, 2 * third:
		for i, r := range f.surge {
			rate := 3 * f.base[i]
			if f.elapsed == 2*third {
				rate = f.base[i]
			}
			sp := rec.begin("cluster.Realm.SetRate")
			r.SetRate(rate)
			rec.end(sp)
		}
	}
	sp := rec.begin("cluster.Cluster.Run")
	f.c.Run(f.tick)
	rec.end(sp)
	f.elapsed += f.tick
}

func (f *fleet) done() bool          { return f.elapsed >= f.spec.horizon }
func (f *fleet) simSeconds() float64 { return f.elapsed.Seconds() }
func (f *fleet) close()              { f.c.Close() }
func (f *fleet) workers() (int, int) { return f.c.Parallelism(), f.c.Machine(0).Workers() }

func (f *fleet) afterStep(traced bool) error {
	for _, r := range f.c.Realms() {
		st := r.Stats()
		if st.Arrived != st.Admitted+st.Rejected+st.Queue {
			return fmt.Errorf("realm %s: arrived %d != admitted %d + rejected %d + queued %d",
				st.Name, st.Arrived, st.Admitted, st.Rejected, st.Queue)
		}
	}
	for i := 0; i < f.spec.detail; i++ {
		m := f.c.Machine(i)
		if err := checkBandwidth(m, i); err != nil {
			return err
		}
		for k := 0; k < m.CPUs(); k++ {
			for _, srv := range m.Core(k).Scheduler().Servers() {
				f.bwSum += srv.Bandwidth()
			}
		}
		for _, h := range m.Handles() {
			if p := h.Player(); p != nil && !f.players[p] {
				f.players[p] = true
				f.order = append(f.order, p)
			}
		}
		if traced {
			f.ex.sample(m)
		}
	}
	f.bwN++
	if traced {
		f.resSum += float64(f.c.Resident())
		f.resN++
	}
	return nil
}

func (f *fleet) finish() (outcome, error) {
	var o outcome
	for i := 0; i < f.c.Machines(); i++ {
		if err := validateMachine(f.c.Machine(i), i); err != nil {
			return o, err
		}
	}
	var d digest
	var frames outcome
	for _, p := range f.order {
		frameStats(p, &frames, &d)
	}
	o.iftDevMs = frames.iftDevMs
	for _, r := range f.c.Realms() {
		st := r.Stats()
		o.attempted += int64(st.Arrived)
		o.failed += int64(st.Rejected)
		for _, name := range f.spec.slo {
			if name == st.Name {
				o.sloScored += st.Requests
				o.sloWithin += st.SLOAttainment * float64(st.Requests)
			}
		}
		if st.Name == f.spec.requestsFrom {
			o.latency = r.Latency().Clone()
		}
		d.str(st.Name)
		for _, v := range []int{st.Arrived, st.Admitted, st.Queued, st.Rejected, st.Departed,
			st.Replaced, st.Grows, st.Shrinks, st.Queue} {
			d.i64(int64(v))
		}
		d.i64(st.Requests)
		d.i64(st.Misses)
		d.i64(int64(st.LatencyP99))
		d.f64(st.Reservation)
	}
	if f.spec.requestsFrom == "" {
		o.latency = f.c.FleetLatency().Clone()
	}
	d.i64(int64(o.latency.Quantile(0.99)))
	// The fleets run no tuners, so their reserved bandwidth is that of
	// every CBS server on the detailed machines, averaged over the tick
	// boundaries: jobs come and go, and one instant would be a draw.
	o.reservedBW = f.bwSum / float64(f.bwN)
	d.f64(o.reservedBW)
	o.replacements = f.c.Replacements()
	o.liveMoves = f.c.LiveReplacements()
	o.liveApplies = f.spec.detail >= f.spec.machines
	o.steps = f.c.Steps()
	d.i64(int64(o.replacements))
	d.i64(int64(o.liveMoves))
	d.u64(o.steps)
	o.digest = d.sum()
	return o, nil
}

func (f *fleet) counters() counters {
	var c counters
	for i := 0; i < f.c.Machines(); i++ {
		machineCounters(f.c.Machine(i), &c)
	}
	c.exhaustions = f.ex.total
	c.replacements = int64(f.c.Replacements())
	c.residentSum = f.resSum
	c.residentN = f.resN
	return c
}

// fleet_surge: a large, mostly placement-only fleet. One machine in 64
// simulates its jobs; the rest only place them. Steady realms run
// alongside two surge realms whose arrival rate triples for the middle
// third, under the autoscaler and FleetWorstFit, with the machine
// telemetry collector on.
func buildFleetSurge(seed uint64, rec *recorder) (instance, error) {
	spec := fleetSpec{
		machines: 64, cores: 8, detail: 1,
		horizon: 15 * selftune.Second,
		opts: []cluster.Option{
			cluster.WithParallelism(1),
			cluster.WithAutoscaler(cluster.DefaultAutoscalerConfig()),
			cluster.WithFleetBalancer(cluster.FleetWorstFit(0.03, 8)),
			cluster.WithFleetBalanceInterval(200 * selftune.Millisecond),
			cluster.WithMachineTelemetry(),
		},
		surge: []string{"api", "shop"},
		slo:   []string{"api", "shop"},
		realms: func(capacity float64, in *rng.Source) []cluster.RealmConfig {
			slo := telemetry.SLO{Quantile: 0.95, Threshold: 250 * selftune.Millisecond}
			web := func(name string, rate float64) cluster.RealmConfig {
				return cluster.RealmConfig{
					Name: name, Reservation: 0.12 * capacity, MaxReservation: 0.4 * capacity,
					Rate: rate, QueueCap: 64, SLO: slo,
					Mix: []cluster.WorkloadSpec{{Kind: "webserver", Hint: 0.15, Util: 0.3,
						Service: cluster.Exp(4 * selftune.Second)}},
				}
			}
			return []cluster.RealmConfig{
				web("api", 80),
				web("shop", 60),
				{
					Name: "media", Reservation: 0.15 * capacity,
					Rate: 54, QueueCap: 64,
					Mix: []cluster.WorkloadSpec{
						{Kind: "video", Hint: 0.15, Util: 0.2, Service: cluster.Exp(8 * selftune.Second)},
						{Kind: "mp3", Hint: 0.1, Service: cluster.Exp(8 * selftune.Second)},
					},
				},
				{
					Name: "batch", Reservation: 0.15 * capacity,
					Rate: 34, QueueCap: 64,
					Mix: []cluster.WorkloadSpec{{Kind: "rtload", Hint: 0.15, Util: 0.25,
						Service: cluster.Pareto(3*selftune.Second, 2.5)}},
				},
				{
					Name: "games", Reservation: 0.1 * capacity,
					Rate: 40, QueueCap: 64,
					Mix: []cluster.WorkloadSpec{{Kind: "gameloop", Hint: 0.1, Util: 0.15,
						Service: cluster.Exp(5 * selftune.Second)}},
				},
			}
		},
	}
	return buildFleet(spec, seed, rec)
}

// rescueSized checks that a pass of fleet_rescue exercised the rescue:
// at least 10 re-placements and 1000 requests of the SLO realm.
func rescueSized(o outcome) error {
	if o.replacements < 10 || o.sloScored < 1000 {
		return fmt.Errorf("fleet_rescue made %d re-placements and %d SLO-realm requests, want at least 10 and 1000",
			o.replacements, o.sloScored)
	}
	return nil
}

// fleet_rescue: a small fleet of fully detailed laned machines under
// BalanceSLOAware. A frontend realm of best-effort webservers under a
// p95 objective surges next to a bimodal rtload batch realm, whose
// under-hinted heavy jobs hide real contention from the hint ledger;
// a steady media realm of video players rides along.
func buildFleetRescue(seed uint64, rec *recorder) (instance, error) {
	spec := fleetSpec{
		machines: 4, cores: 8, detail: 4,
		horizon: 12 * selftune.Second,
		opts: []cluster.Option{
			cluster.WithParallelism(1),
			cluster.WithCoreParallelism(2),
			cluster.WithFleetBalancer(cluster.BalanceSLOAware()),
			cluster.WithFleetBalanceInterval(500 * selftune.Millisecond),
		},
		surge:        []string{"frontend"},
		slo:          []string{"frontend"},
		requestsFrom: "frontend",
		realms: func(capacity float64, in *rng.Source) []cluster.RealmConfig {
			return []cluster.RealmConfig{
				{
					Name: "frontend", Reservation: 0.15 * capacity,
					Rate: 10 * in.Uniform(0.9, 1.1), QueueCap: 8,
					Mix: []cluster.WorkloadSpec{{Kind: "webserver", Hint: 0.15, Util: 0.45,
						Service: cluster.Exp(2 * selftune.Second)}},
					SLO: telemetry.SLO{Quantile: 0.95, Threshold: 250 * selftune.Millisecond},
				},
				{
					Name: "batch", Reservation: 0.6 * capacity,
					Rate: 6 * in.Uniform(0.9, 1.1), QueueCap: 64,
					Mix: []cluster.WorkloadSpec{
						{Kind: "rtload", Hint: 0.35, Util: 0.15, Service: cluster.Exp(6 * selftune.Second)},
						{Kind: "rtload", Hint: 0.05, Util: 0.55, Service: cluster.Exp(6 * selftune.Second)},
					},
				},
				{
					Name: "media", Reservation: 0.1 * capacity,
					Rate: 1.5 * in.Uniform(0.9, 1.1), QueueCap: 64,
					Mix: []cluster.WorkloadSpec{{Kind: "video", Hint: 0.2, Util: 0.2,
						Service: cluster.Exp(6 * selftune.Second)}},
				},
			}
		},
	}
	return buildFleet(spec, seed, rec)
}
