package main

import (
	"encoding/json"
	"os"
	"testing"
)

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// The metrics the benchmark prints must be exactly those BENCHMARK.json
// declares, with the same units: end-to-end without tracing, the
// per-layer ledger with it.
func TestMetricsMatchBenchmarkSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}

	r := rep{setupS: 0.1, wallS: 2, simS: 10, stepS: []float64{1, 1}, peakHeap: 1e6, allocB: 1e6,
		out: outcome{attempted: 10, failed: 1, iftDevMs: []float64{1, 2},
			tuners: 1, locked: 1, sloScored: 10, sloWithin: 9}}
	e2e, _ := endToEnd([]rep{r}, r.out)
	compare(t, "end_to_end", spec.EndToEnd, e2e)

	li := &ledgerInput{
		reps: []rep{r},
		rec:  newRecorder(),
		cpu: &profile{sampleTypes: []string{"samples/count", "cpu/nanoseconds"},
			samples: []profileSample{{stack: []string{"repro/internal/sim.f"}, values: []int64{1, 10}}}},
		allocs: map[string]int64{"sched": 5},
	}
	lay, _ := perLayer([]rep{r}, li)
	compare(t, "per_layer", spec.PerLayer, lay)
}

func compare(t *testing.T, kind string, spec []specMetric, got map[string]metric) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range spec {
		seen[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s is declared but not reported", kind, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s metric %s is reported in %q, declared in %q", kind, m.Name, g.Unit, m.Unit)
		}
	}
	for name := range got {
		if !seen[name] {
			t.Errorf("%s metric %s is reported but not declared", kind, name)
		}
	}
}
