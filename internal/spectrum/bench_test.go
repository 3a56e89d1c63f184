package spectrum

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/simtime"
)

func benchTrain(n int) []simtime.Time {
	r := rng.New(1)
	return diracTrain(r, 30*simtime.Millisecond, n,
		[]simtime.Duration{0, 28 * simtime.Millisecond}, 300*simtime.Microsecond)
}

func BenchmarkComputeReference(b *testing.B) {
	events := benchTrain(65) // ~2s of the mp3 workload's frames
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compute(events, DefaultBand)
	}
}

func BenchmarkComputeFast(b *testing.B) {
	events := benchTrain(65)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ComputeFast(events, DefaultBand)
	}
}

func BenchmarkIncrementalAdd(b *testing.B) {
	inc := NewIncremental(DefaultBand)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inc.Add(simtime.Time(i) * simtime.Time(simtime.Millisecond))
	}
}

func BenchmarkDetect(b *testing.B) {
	s := Compute(benchTrain(65), DefaultBand)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Detect(s, DefaultDetect)
	}
}

func BenchmarkWindowObserve(b *testing.B) {
	w := NewWindow(DefaultBand, 2*simtime.Second)
	batch := make([]simtime.Time, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := simtime.Time(i) * simtime.Time(10*simtime.Millisecond)
		for k := range batch {
			batch[k] = now.Add(simtime.Duration(k) * simtime.Millisecond)
		}
		w.Observe(now, batch)
	}
}

// BenchmarkWindowObserveTuner drives a Window the way one tuner does:
// DefaultBand, a 2 s horizon and a 200 ms sampling period delivering
// 120 syscall timestamps per batch (the recorded-syscall rate per
// tuner of the perfbench tuned_machine workload), evenly spread with
// up to 1 ms of jitter. In steady state every batch adds 120 events
// and expires as many. ns_per_event is the cost per observed event.
func BenchmarkWindowObserveTuner(b *testing.B) {
	const (
		period   = 200 * simtime.Millisecond
		perBatch = 120
	)
	r := rng.New(1)
	offsets := make([]simtime.Duration, perBatch)
	for k := range offsets {
		offsets[k] = simtime.Duration(k)*period/perBatch + simtime.Duration(r.Int63n(int64(simtime.Millisecond)))
	}
	w := NewWindow(DefaultBand, 2*simtime.Second)
	batch := make([]simtime.Time, perBatch)
	observe := func(tick int) {
		start := simtime.Time(tick) * simtime.Time(period)
		for k := range batch {
			batch[k] = start.Add(offsets[k])
		}
		w.Observe(start.Add(period), batch)
	}
	tick := 0
	for ; tick < 20; tick++ { // fill the horizon
		observe(tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		observe(tick)
		tick++
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perBatch), "ns_per_event")
}
