package spectrum

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/workpool"
)

// eventMajor is the analyser as it was before the bin-major kernel:
// each event is folded into every bin on its own, additions with
// sign +1 and removals with sign -1. The Window must match it bit for
// bit.
type eventMajor struct {
	band    Band
	horizon simtime.Duration
	re, im  []float64
	buf     []simtime.Time
	events  int
	ops     int64
}

func newEventMajor(band Band, h simtime.Duration) *eventMajor {
	n := band.Bins()
	return &eventMajor{band: band, horizon: h, re: make([]float64, n), im: make([]float64, n)}
}

func (r *eventMajor) accumulate(t simtime.Time, sign float64) {
	ts := t.Seconds()
	for i := range r.re {
		w := 2 * math.Pi * r.band.Freq(i)
		s, c := math.Sincos(w * ts)
		r.re[i] += sign * c
		r.im[i] -= sign * s
	}
	r.events += int(sign)
	r.ops += int64(len(r.re))
}

func (r *eventMajor) observe(now simtime.Time, events []simtime.Time) {
	for _, t := range events {
		r.accumulate(t, 1)
		r.buf = append(r.buf, t)
	}
	cutoff := now.Add(-r.horizon)
	drop := 0
	for drop < len(r.buf) && r.buf[drop] < cutoff {
		r.accumulate(r.buf[drop], -1)
		drop++
	}
	r.buf = append(r.buf[:0], r.buf[drop:]...)
}

func (r *eventMajor) reset() {
	clear(r.re)
	clear(r.im)
	r.buf = r.buf[:0]
	r.events = 0
}

func (r *eventMajor) spectrum() *Spectrum {
	amp := make([]float64, len(r.re))
	for i := range amp {
		amp[i] = math.Hypot(r.re[i], r.im[i])
	}
	return &Spectrum{Band: r.band, Amp: amp, Events: r.events, Ops: r.ops}
}

// sameBits reports whether two spectra agree exactly: every amplitude
// bit, the event count and the operation count.
func sameBits(a, b *Spectrum) bool {
	if len(a.Amp) != len(b.Amp) || a.Events != b.Events || a.Ops != b.Ops {
		return false
	}
	for i := range a.Amp {
		if math.Float64bits(a.Amp[i]) != math.Float64bits(b.Amp[i]) {
			return false
		}
	}
	return true
}

// step is one call on a window: Observe(now, events), or a Reset.
type step struct {
	reset  bool
	now    simtime.Time
	events []simtime.Time
}

// randomSteps builds a chronological stream of batches against a 1 s
// horizon: mostly tuner-sized batches (large enough to be sharded),
// some empty ones, some whose own events already lie beyond the
// horizon when observed, and an occasional Reset.
func randomSteps(seed uint64, n int) []step {
	r := rng.New(seed)
	var steps []step
	at := simtime.Time(0)
	for k := 0; k < n; k++ {
		if r.Intn(12) == 0 {
			steps = append(steps, step{reset: true})
			continue
		}
		var events []simtime.Time
		for m := r.Intn(4) * r.Intn(90); m > 0; m-- {
			at = at.Add(simtime.Duration(r.Int63n(int64(4 * simtime.Millisecond))))
			events = append(events, at)
		}
		gap := simtime.Duration(r.Int63n(int64(200 * simtime.Millisecond)))
		if r.Intn(6) == 0 {
			gap = 3 * simtime.Second // the whole batch expires on arrival
		}
		at = at.Add(gap)
		steps = append(steps, step{now: at, events: events})
	}
	return steps
}

// replay drives a Window through the steps and returns its spectrum
// after every step.
func replay(band Band, steps []step) []*Spectrum {
	w := NewWindow(band, simtime.Second)
	out := make([]*Spectrum, 0, len(steps))
	for _, s := range steps {
		if s.reset {
			w.Reset()
		} else {
			w.Observe(s.now, s.events)
		}
		out = append(out, w.Spectrum())
	}
	return out
}

func TestWindowBitIdenticalToEventMajor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	steps := randomSteps(42, 80)
	var resets, empty, stale, sharded int
	for _, s := range steps {
		switch {
		case s.reset:
			resets++
		case len(s.events) == 0:
			empty++
		case s.events[0] < s.now.Add(-simtime.Second):
			stale++
		}
		if len(s.events)*DefaultBand.Bins() >= inlineWork {
			sharded++
		}
	}
	if resets == 0 || empty == 0 || stale == 0 || sharded == 0 {
		t.Fatalf("stream lacks a case: %d resets, %d empty, %d stale, %d sharded batches", resets, empty, stale, sharded)
	}
	ref := newEventMajor(DefaultBand, simtime.Second)
	want := make([]*Spectrum, len(steps))
	for k, s := range steps {
		if s.reset {
			ref.reset()
		} else {
			ref.observe(s.now, s.events)
		}
		want[k] = ref.spectrum()
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for k, got := range replay(DefaultBand, steps) {
			if !sameBits(got, want[k]) {
				t.Fatalf("GOMAXPROCS %d, step %d (%d events): window differs from the event-major reference (events %d/%d, ops %d/%d)",
					procs, k, len(steps[k].events), got.Events, want[k].Events, got.Ops, want[k].Ops)
			}
		}
	}
}

// TestConcurrentWindowsShareHelpers drives many windows at once — some
// from plain goroutines, some from inside another pool's Run as the
// lane pool does — all sharding onto the shared helpers, and checks
// each against its serial replay bit for bit.
func TestConcurrentWindowsShareHelpers(t *testing.T) {
	const streams = 8
	inputs := make([][]step, streams)
	want := make([][]*Spectrum, streams)
	for g := range inputs {
		inputs[g] = randomSteps(uint64(100+g), 12)
		want[g] = replay(DefaultBand, inputs[g])
	}
	got := make([][]*Spectrum, streams)
	outer := workpool.New(3)
	defer outer.Close()
	var wg sync.WaitGroup
	for g := 0; g < streams/2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = replay(DefaultBand, inputs[g])
		}()
	}
	outer.Run(streams/2, func(i int) {
		g := streams/2 + i
		got[g] = replay(DefaultBand, inputs[g])
	})
	wg.Wait()
	for g := range got {
		for k := range got[g] {
			if !sameBits(got[g][k], want[g][k]) {
				t.Fatalf("stream %d, step %d: concurrent result differs from the serial replay", g, k)
			}
		}
	}
}

// TestComputeMatchesIncremental pins Compute to the same kernel: the
// batch spectrum equals adding the events one at a time, bit for bit.
func TestComputeMatchesIncremental(t *testing.T) {
	events := benchTrain(65)
	inc := NewIncremental(DefaultBand)
	for _, e := range events {
		inc.Add(e)
	}
	if !sameBits(Compute(events, DefaultBand), inc.Spectrum()) {
		t.Fatal("Compute differs from event-by-event Incremental.Add")
	}
}
