package main

import "math"

// endToEnd returns the end-to-end metrics of the untraced repetitions
// and a detail record per metric: host metrics as the median over the
// repetitions with their spread, and
// the simulated outcomes o, pooled over one pass of the cases, with the
// counts behind them.
func endToEnd(reps []rep, o outcome) (map[string]metric, map[string]any) {
	var setup, speed, heap, alloc []float64
	for _, r := range reps {
		setup = append(setup, r.setupS)
		speed = append(speed, r.simS/r.wallS)
		heap = append(heap, r.peakHeap/1e6)
		alloc = append(alloc, r.allocB/1e6/r.simS)
	}
	out := map[string]metric{}
	detail := map[string]any{}
	host := func(name, unit string, xs []float64) {
		out[name] = metric{median(xs), unit}
		detail[name] = map[string]any{"value": median(xs), "unit": unit, "runs": len(xs),
			"spread": quartileSpread(xs), "values": xs}
	}
	host("setup_s", "s", setup)
	host("sim_s_per_wall_s", "s/s", speed)
	host("peak_live_heap_mb", "MB", heap)
	host("alloc_mb_per_sim_s", "MB/s", alloc)

	model := func(name, unit string, v float64, extra map[string]any) {
		out[name] = metric{v, unit}
		d := map[string]any{"value": v, "unit": unit}
		for k, x := range extra {
			d[k] = x
		}
		detail[name] = d
	}
	model("failed_frac", "fraction", ratio(float64(o.failed), float64(o.attempted), 0),
		map[string]any{"attempted": o.attempted, "failed": o.failed})
	p, beyond := percentile(o.iftDevMs, 0.99)
	model("ift_dev_p99_ms", "ms", p, map[string]any{"samples": len(o.iftDevMs), "beyond": beyond})
	// Request latency: the p99 of the program's own latency histogram,
	// pooled over the cases.
	n := o.latency.Total()
	model("request_p99_ms", "ms", float64(o.latency.Quantile(0.99))/1e6, map[string]any{"samples": n,
		"beyond": n - int64(math.Ceil(0.99*float64(n)))})
	model("reserved_bw", "cores", o.reservedBW, nil)
	model("period_lock_frac", "fraction", ratio(float64(o.locked), float64(o.tuners), 1),
		map[string]any{"tuners": o.tuners, "locked": o.locked})
	model("slo_attainment", "fraction", ratio(o.sloWithin, float64(o.sloScored), 1),
		map[string]any{"scored": o.sloScored})
	live := 1.0
	if o.liveApplies {
		live = ratio(float64(o.liveMoves), float64(o.replacements), 1)
	}
	model("live_frac", "fraction", live,
		map[string]any{"replacements": o.replacements, "live": o.liveMoves, "applies": o.liveApplies})
	detail["steps"] = o.steps
	detail["digest"] = o.digest
	return out, detail
}

// ratio returns a/b, or empty when b is 0: the value an empty set
// reads as (1 for "every one of none", 0 for a share of nothing).
func ratio(a, b, empty float64) float64 {
	if b == 0 {
		return empty
	}
	return a / b
}

// layerNames are the repo packages the ledger reports a self share for.
var layerNames = []string{
	"spectrum", "core", "feedback", "supervisor", "ktrace", "sim", "sched",
	"smp", "workpool", "selftune", "cluster", "telemetry", "workload",
}

// perLayer returns the per-layer ledger of the traced repetitions,
// plus a detail record with every layer's share, "other" included.
func perLayer(plain []rep, li *ledgerInput) (map[string]metric, map[string]any) {
	var ctr counters
	var simS float64
	for _, r := range li.reps {
		ctr.add(r.ctr)
		simS += r.simS
	}
	cpuIdx := li.cpu.valueIndex("cpu/nanoseconds")
	cpuNs := attribute(li.cpu, cpuIdx)
	self := shares(cpuNs)
	allocShare := shares(li.allocs)
	phases := phaseShares(li.cpu, cpuIdx)

	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	for _, l := range layerNames {
		put(l+".self_frac", "fraction", self[l])
	}
	put("runtime.gc.self_frac", "fraction", self[layerGC])
	for _, l := range []string{"ktrace", "sim", "sched", "selftune", "cluster", "telemetry"} {
		put(l+".alloc_frac", "fraction", allocShare[l])
	}
	for _, ph := range phaseNames {
		put("cluster.phase_frac."+ph, "fraction", phases[ph])
	}

	ns := func(layers ...string) float64 {
		var sum int64
		for _, l := range layers {
			sum += cpuNs[l]
		}
		return float64(sum)
	}
	act := float64(ctr.activations)
	put("spectrum.us_per_activation", "us", ratio(ns("spectrum")/1e3, act, 0))
	put("core.us_per_activation", "us", ratio(ns("core", "spectrum", "feedback", "supervisor")/1e3, act, 0))
	put("core.activations_per_sim_s", "1/s", act/simS)
	put("supervisor.compressed_frac", "fraction", ratio(float64(ctr.compressed), float64(ctr.grants), 0))
	put("ktrace.recorded_per_sim_s", "1/s", float64(ctr.recorded)/simS)
	put("ktrace.dropped_frac", "fraction", ratio(float64(ctr.dropped), float64(ctr.recorded), 0))
	put("sim.events_per_sim_s", "1/s", float64(ctr.steps)/simS)
	put("sim.ns_per_event", "ns", ratio(ns("sim"), float64(ctr.steps), 0))
	put("sched.ctx_switches_per_sim_s", "1/s", float64(ctr.switches)/simS)
	put("sched.exhaustions_per_sim_s", "1/s", float64(ctr.exhaustions)/simS)
	put("sched.ns_per_switch", "ns", ratio(ns("sched"), float64(ctr.switches), 0))
	put("selftune.fences_per_sim_s", "1/s", float64(ctr.fences)/simS)
	put("cluster.replacements_per_sim_s", "1/s", float64(ctr.replacements)/simS)
	put("cluster.resident_mean", "count", ratio(ctr.residentSum, float64(ctr.residentN), 0))

	// Call timings: the spans of the traced repetitions for set-up
	// calls, and for the per-chunk Run calls every repetition's own
	// timing, traced or not, so the tails rest on more samples.
	detail := map[string]any{}
	spanMedian := func(metricName, spanName, unit string, scale float64) {
		d := li.rec.durations(spanName)
		put(metricName, unit, median(d)*scale)
		detail[metricName] = map[string]any{"samples": len(d)}
	}
	spanMedian("cluster.new_s", "cluster.New", "s", 1)
	spanMedian("selftune.spawn_us", "selftune.Spawn", "us", 1e6)
	var steps []float64
	for _, r := range append(append([]rep(nil), plain...), li.reps...) {
		steps = append(steps, r.stepS...)
	}
	chunkP50, chunkP99, n, beyond := 0.0, 0.0, 0, 0
	if len(steps) > 0 {
		chunkP50 = median(steps) * 1e3
		chunkP99, beyond = percentile(steps, 0.99)
		chunkP99 *= 1e3
		n = len(steps)
	}
	isFleet := len(li.rec.durations("cluster.Cluster.Run")) > 0
	chunk := map[bool]string{true: "cluster.tick_ms", false: "selftune.run_chunk_ms"}
	put(chunk[isFleet]+"_p50", "ms", chunkP50)
	put(chunk[isFleet]+"_p99", "ms", chunkP99)
	put(chunk[!isFleet]+"_p50", "ms", 0)
	put(chunk[!isFleet]+"_p99", "ms", 0)
	detail[chunk[isFleet]] = map[string]any{"samples": n, "beyond_p99": beyond}

	// Tracing overhead: each traced repetition's host time per simulated
	// second against the untraced repetitions of the same case.
	plainRate := map[int][]float64{}
	for _, r := range plain {
		plainRate[r.caseIdx] = append(plainRate[r.caseIdx], r.wallS/r.simS)
	}
	var overhead []float64
	for _, r := range li.reps {
		if p, ok := plainRate[r.caseIdx]; ok {
			overhead = append(overhead, (r.wallS/r.simS)/median(p)-1)
		}
	}
	put("trace.overhead_frac", "fraction", median(overhead))

	var cpuTotal int64
	for _, v := range cpuNs {
		cpuTotal += v
	}
	detail["cpu_seconds"] = float64(cpuTotal) / 1e9
	detail["self_frac"] = self
	detail["alloc_frac"] = allocShare
	detail["counters"] = map[string]any{
		"activations": ctr.activations, "grants": ctr.grants, "compressed": ctr.compressed,
		"recorded": ctr.recorded, "dropped": ctr.dropped, "switches": ctr.switches,
		"exhaustions": ctr.exhaustions, "fences": ctr.fences, "steps": ctr.steps,
		"replacements": ctr.replacements, "sim_s": simS, "traced_runs": len(li.reps),
	}
	return out, detail
}
