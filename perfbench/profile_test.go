package main

import (
	"bytes"
	"math"
	"runtime"
	"runtime/pprof"
	"testing"
)

func TestSampleLayer(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		// The innermost repo frame names the layer, even below runtime
		// frames it called.
		{[]string{"math.sincos", "repro/internal/spectrum.(*Incremental).accumulate", "repro/internal/core.(*AutoTuner).tick"}, "spectrum"},
		{[]string{"runtime.mallocgc", "repro/internal/sched.(*Scheduler).dispatch", "repro/internal/sim.(*Engine).Step"}, "sched"},
		{[]string{"repro/selftune/cluster.(*Cluster).admit", "repro/selftune/cluster.(*Cluster).generateArrivals"}, "cluster"},
		{[]string{"repro/selftune.(*System).Run.func1", "repro/internal/workpool.(*Pool).worker"}, "selftune"},
		{[]string{"main.runRep", "main.main"}, "bench"},
		// Collector work goes to runtime.gc whatever triggered it.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerGC},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/ktrace.NewBuffer"}, layerGC},
		// No repo frame at all.
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, layerOther},
		{nil, layerOther},
	}
	for _, c := range cases {
		if got := sampleLayer(c.stack); got != c.want {
			t.Errorf("sampleLayer(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestSharesSumToOne(t *testing.T) {
	p := &profile{
		sampleTypes: []string{"samples/count", "cpu/nanoseconds"},
		samples: []profileSample{
			{stack: []string{"repro/internal/spectrum.f"}, values: []int64{1, 30}},
			{stack: []string{"repro/internal/sim.(*Engine).Step"}, values: []int64{1, 20}},
			{stack: []string{"runtime.gcBgMarkWorker"}, values: []int64{1, 10}},
			{stack: []string{"runtime.usleep"}, values: []int64{1, 40}},
		},
	}
	s := shares(attribute(p, p.valueIndex("cpu/nanoseconds")))
	var sum float64
	for _, v := range s {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1: %v", sum, s)
	}
	want := map[string]float64{"spectrum": 0.3, "sim": 0.2, layerGC: 0.1, layerOther: 0.4}
	for k, v := range want {
		if math.Abs(s[k]-v) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", k, s[k], v)
		}
	}
	if len(shares(map[string]int64{})) != 0 {
		t.Errorf("shares of nothing should be empty")
	}
}

func TestPhaseSharesUseInnermostPhase(t *testing.T) {
	const c = "repro/selftune/cluster.(*Cluster)."
	p := &profile{samples: []profileSample{
		// admit called while generating arrivals counts as admit.
		{stack: []string{"runtime.mallocgc", c + "admit", c + "generateArrivals", c + "Run"}, values: []int64{4}},
		// request folding inside the advance counts as fold.
		{stack: []string{c + "foldRequestComplete", c + "advance", c + "Run"}, values: []int64{1}},
		// the advance closure on a pool worker counts as advance.
		{stack: []string{"repro/internal/sched.(*Scheduler).dispatch", c + "advance.func1", "repro/internal/workpool.(*Pool).worker"}, values: []int64{3}},
		{stack: []string{"main.main"}, values: []int64{2}},
	}}
	got := phaseShares(p, 0)
	want := map[string]float64{"admit": 0.4, "fold": 0.1, "advance": 0.3, "rebalance": 0}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("phase %s = %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(phaseNames) {
		t.Errorf("phaseShares returned %d phases, want %d", len(got), len(phaseNames))
	}
}

var sink [][]byte

// allocate is a frame of this package the allocation profile must show.
func allocate() {
	for i := 0; i < 2000; i++ {
		sink = append(sink, make([]byte, 4096))
	}
}

func TestParseRuntimeProfiles(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	allocate()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	vi := p.valueIndex("alloc_space/bytes")
	if vi < 0 {
		t.Fatalf("no alloc_space/bytes in %v", p.sampleTypes)
	}
	// The test binary's package is repro/perfbench, whose frames the
	// ledger calls "bench".
	if got := attribute(p, vi)["bench"]; got < 2000*4096 {
		t.Errorf("bench layer allocated %d bytes, want at least %d", got, 2000*4096)
	}
	sink = nil

	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		t.Fatal(err)
	}
	pprof.StopCPUProfile()
	cp, err := parseProfile(cpu.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if cp.valueIndex("cpu/nanoseconds") < 0 {
		t.Errorf("no cpu/nanoseconds in %v", cp.sampleTypes)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte{0x0a, 0xff}); err == nil {
		t.Errorf("truncated message parsed without error")
	}
}
