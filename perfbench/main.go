// Command perfbench is the repository's benchmark: it runs one named
// workload of the self-tuning scheduler simulator for a fixed host-time
// budget, repeats the set-up and the simulated run several times with
// the same seed, checks that every repetition is correct and
// bit-identical, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer ledger) as one JSON line.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fleet_rescue --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: tuned_machine, fleet_surge or fleet_rescue")
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are made from")
		seconds = flag.Float64("seconds", 20, "host seconds to measure for")
		trace   = flag.Int("trace", 0, "1 = report the per-layer ledger of a traced run instead of the end-to-end metrics")
	)
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// rep is one repetition of one case: set-up, timed run, outcomes.
type rep struct {
	caseIdx  int
	setupS   float64   // host time of one build, untraced repetitions only
	wallS    float64   // host time inside the timed Run calls
	stepS    []float64 // host time of each Run call
	simS     float64
	peakHeap float64 // bytes, max of /gc/heap/live at chunk boundaries
	allocB   float64 // bytes allocated during the timed run
	out      outcome
	ctr      counters

	machineWorkers, laneWorkers int
}

// caseSeed derives the seed of case i of a run from the run's seed.
func caseSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// run measures one workload and prints the report and the result. It
// runs in the repository root, where spans are written and whose
// sources the report digests.
func run(stdout io.Writer, name string, seed uint64, seconds float64, traced bool) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()

	// Repetitions cycle through the cases. Without tracing the first
	// full pass is always completed, since the simulated outcomes pool
	// it, and at least one case runs twice; then the cycle goes on while
	// the budget lasts. With tracing, untraced and traced repetitions of
	// the same case alternate instead, so that both sides see the same
	// host conditions.
	var reps []rep
	var li *ledgerInput
	var fail error
	if traced {
		reps, li, fail = runTraced(w, seed, budget)
	} else {
		for len(reps) < w.cases+1 || fits(start, budget, len(reps)) {
			r, err := runRep(w, seed, len(reps)%w.cases, nil)
			if err != nil {
				fail = err
				break
			}
			reps = append(reps, r)
		}
	}
	var pooled outcome
	if fail == nil && !traced {
		for _, r := range reps[:w.cases] {
			pooled.merge(r.out)
		}
		pooled.reservedBW /= float64(w.cases)
		if w.checkPass != nil {
			fail = w.checkPass(pooled)
		}
	}
	if fail == nil {
		fail = sameOutcomes(reps, li)
	}

	res := result{Correct: fail == nil, Attempted: int64(len(reps)), Metrics: map[string]metric{}}
	if li != nil {
		res.Attempted += int64(len(li.reps))
	}
	if fail != nil {
		res.Failed = 1
	}
	report := map[string]any{
		"workload": w.name,
		"seed":     seed,
		"cases":    w.cases,
		"host":     hostInfo(reps),
	}
	switch {
	case fail != nil:
	case traced:
		lay, detail := perLayer(reps, li)
		report["per_layer"] = detail
		res.Metrics = lay
		if err := writeSpans(filepath.Join(".bench_build", "spans"),
			fmt.Sprintf("%s-%d.json", w.name, seed), li.rec.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans not written:", err)
		}
	default:
		e2e, detail := endToEnd(reps, pooled)
		report["end_to_end"] = detail
		res.Metrics = e2e
	}
	if err := printJSON(stdout, report); err != nil {
		return err
	}
	if err := printJSON(stdout, res); err != nil {
		return err
	}
	return fail
}

// fits reports whether one more of n steps taken since start, as long
// as their mean, ends within the budget.
func fits(start time.Time, budget time.Duration, n int) bool {
	if n == 0 {
		return true
	}
	used := time.Since(start)
	return used+used/time.Duration(n) <= budget
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

var heapSamples = []metrics.Sample{
	{Name: "/gc/heap/live:bytes"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readHeap() (live, allocs float64) {
	metrics.Read(heapSamples)
	return float64(heapSamples[0].Value.Uint64()), float64(heapSamples[1].Value.Uint64())
}

// runRep sets one case of the workload up and runs it to its horizon.
// rec is nil for untraced repetitions.
func runRep(w workload, seed uint64, caseIdx int, rec *recorder) (rep, error) {
	// The collections measure the live heap of untraced repetitions.
	// A traced one runs under a CPU profile, which they would enter as
	// the program's GC time; its caller collects before the profile.
	traced := rec != nil
	collect := func() {
		if !traced {
			runtime.GC()
		}
	}
	r := rep{caseIdx: caseIdx}

	// Set-up is timed over a batch of builds of the case, so that a
	// sample lasts milliseconds even where one build takes a fraction
	// of one, and from a heap whose free memory went back to the
	// system, so that every sample starts from the same state rather
	// than from whatever the runtime kept of the last repetition. The
	// first instance built is the one that runs.
	batch := 1
	if !traced {
		debug.FreeOSMemory()
		batch = w.setupBatch
	}
	built := make([]instance, 0, batch)
	var err error
	t0 := time.Now()
	for len(built) < batch && err == nil {
		var in instance
		if in, err = w.build(caseSeed(seed, caseIdx), rec); err == nil {
			built = append(built, in)
		}
	}
	r.setupS = time.Since(t0).Seconds() / float64(batch)
	if err != nil {
		for _, x := range built {
			x.close()
		}
		return r, fmt.Errorf("set-up: %w", err)
	}
	for _, x := range built[1:] {
		x.close()
	}
	in := built[0]
	built = nil // lets the collection below free the other builds
	defer in.close()
	r.machineWorkers, r.laneWorkers = in.workers()
	// The live heap is only known as of the last collection, so collect
	// once after set-up and once at the end, outside the timed region,
	// besides sampling at every chunk boundary. What the other builds
	// of a batch left in the runtime's pools survives one collection.
	collect()
	if batch > 1 {
		runtime.GC()
	}
	r.peakHeap, _ = readHeap()
	_, alloc0 := readHeap()
	for !in.done() {
		t := time.Now()
		in.step(rec)
		d := time.Since(t).Seconds()
		r.wallS += d
		r.stepS = append(r.stepS, d)
		if live, _ := readHeap(); live > r.peakHeap {
			r.peakHeap = live
		}
		if err := in.afterStep(traced); err != nil {
			return r, fmt.Errorf("at %.1fs simulated: %w", in.simSeconds(), err)
		}
	}
	_, alloc1 := readHeap()
	r.allocB = alloc1 - alloc0
	collect()
	if live, _ := readHeap(); live > r.peakHeap {
		r.peakHeap = live
	}
	r.simS = in.simSeconds()
	if r.out, err = in.finish(); err != nil {
		return r, err
	}
	r.ctr = in.counters()
	return r, nil
}

// ledgerInput is what the traced repetitions leave for the ledger.
type ledgerInput struct {
	reps   []rep
	rec    *recorder
	cpu    *profile
	allocs map[string]int64 // bytes allocated per layer during the traced reps
}

// runTraced alternates untraced and traced repetitions of each case,
// for at least two pairs and until the Run calls of all of them number
// minCalls, then while the budget lasts. The traced ones record spans
// and counters under a CPU profile and between two allocation profiles.
func runTraced(w workload, seed uint64, budget time.Duration) ([]rep, *ledgerInput, error) {
	// The p99 of the Run call timings needs 10 samples beyond it.
	const minCalls = 1000
	li := &ledgerInput{rec: newRecorder(), cpu: &profile{}, allocs: map[string]int64{}}
	var plain []rep
	calls := 0
	start := time.Now()
	for len(li.reps) < 2 || calls < minCalls || fits(start, budget, len(li.reps)) {
		c := len(li.reps) % w.cases
		r, err := runRep(w, seed, c, nil)
		if err != nil {
			return nil, nil, err
		}
		plain = append(plain, r)
		calls += len(r.stepS)
		if r, err = tracedRep(w, seed, c, li); err != nil {
			return nil, nil, err
		}
		li.reps = append(li.reps, r)
		calls += len(r.stepS)
	}
	return plain, li, nil
}

// tracedRep runs one traced repetition and folds its profiles into li.
func tracedRep(w workload, seed uint64, c int, li *ledgerInput) (rep, error) {
	runtime.GC()
	before, err := allocProfile()
	if err != nil {
		return rep{}, err
	}
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return rep{}, err
	}
	r, err := runRep(w, seed, c, li.rec)
	pprof.StopCPUProfile()
	if err != nil {
		return rep{}, err
	}
	runtime.GC()
	after, err := allocProfile()
	if err != nil {
		return rep{}, err
	}
	p, err := parseProfile(cpu.Bytes())
	if err != nil {
		return rep{}, err
	}
	li.cpu.sampleTypes = p.sampleTypes
	li.cpu.samples = append(li.cpu.samples, p.samples...)
	for k, v := range after {
		if d := v - before[k]; d > 0 {
			li.allocs[k] += d
		}
	}
	return r, nil
}

// allocProfile returns the bytes allocated so far per layer, from the
// runtime's sampled allocation profile.
func allocProfile() (map[string]int64, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	vi := p.valueIndex("alloc_space/bytes")
	if vi < 0 {
		return nil, fmt.Errorf("allocation profile without alloc_space")
	}
	return attribute(p, vi), nil
}

// sameOutcomes checks that every repetition of a case, traced or not,
// produced the same step count and outcome digest.
func sameOutcomes(reps []rep, li *ledgerInput) error {
	all := append([]rep(nil), reps...)
	if li != nil {
		all = append(all, li.reps...)
	}
	first := map[int]rep{}
	for i, r := range all {
		f, seen := first[r.caseIdx]
		if !seen {
			first[r.caseIdx] = r
			continue
		}
		if r.out.steps != f.out.steps || r.out.digest != f.out.digest {
			return fmt.Errorf("repetition %d of case %d diverged: steps %d digest %016x, first had steps %d digest %016x",
				i, r.caseIdx, r.out.steps, r.out.digest, f.out.steps, f.out.digest)
		}
	}
	return nil
}

// hostInfo records what the numbers were measured on.
func hostInfo(reps []rep) map[string]any {
	info := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     "unknown",
	}
	if len(reps) > 0 {
		info["machine_workers"], info["lane_workers"] = reps[0].machineWorkers, reps[0].laneWorkers
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" && dirty {
			rev += "+modified"
		}
		if rev != "" {
			info["commit"] = rev
		}
	}
	return info
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
