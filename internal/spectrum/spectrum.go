// Package spectrum implements the paper's period analyser (Secs. 4.2
// and 4.3): a sparse discrete-time Fourier transform computed directly
// over the event timestamps (each event contributes e^{-jωt}), and the
// peak-detection heuristic that extracts the fundamental frequency.
//
// The direct formulation is what makes the approach viable in the
// paper: an FFT would require sampling the Dirac train at nanosecond
// resolution, whereas the cost here is one complex exponential per
// (event, frequency bin) pair — Equation (3) of the paper. The
// implementation counts those operations so the complexity claims can
// be tested, not just trusted.
//
// Compute, Incremental and Window share one bin-major kernel: each bin
// folds a batch's added events and then its removed events, each in
// order, so every bin sees the same floating-point operations as
// folding the events one at a time, and results are bit-identical
// however a batch is split. Incremental and Window shard large batches
// by bin range across the idle cores of workpool.Shared; small batches
// and Compute run inline. ComputeFast is the one variant that rounds
// differently (an ablation).
package spectrum

import (
	"math"
	"slices"

	"repro/internal/simtime"
	"repro/internal/workpool"
)

// Band describes the analysed frequency range: [FMin, FMax] sampled
// every DeltaF, all in Hz.
type Band struct {
	FMin, FMax, DeltaF float64
}

// DefaultBand matches the paper's common configuration.
var DefaultBand = Band{FMin: 1, FMax: 100, DeltaF: 0.1}

// Bins returns the number of frequency samples in the band.
func (b Band) Bins() int {
	if b.DeltaF <= 0 || b.FMax < b.FMin {
		return 0
	}
	return int(math.Floor((b.FMax-b.FMin)/b.DeltaF+1e-9)) + 1
}

// Valid reports whether the band is well-formed.
func (b Band) Valid() bool {
	return b.DeltaF > 0 && b.FMin >= 0 && b.FMax > b.FMin
}

// Freq returns the frequency of bin i.
func (b Band) Freq(i int) float64 { return b.FMin + float64(i)*b.DeltaF }

// Bin returns the bin index nearest to frequency f, clamped to the
// band.
func (b Band) Bin(f float64) int {
	i := int(math.Round((f - b.FMin) / b.DeltaF))
	if i < 0 {
		i = 0
	}
	if n := b.Bins(); i >= n {
		i = n - 1
	}
	return i
}

// Spectrum is a sampled amplitude spectrum |S(ω)| of an event train.
type Spectrum struct {
	Band Band
	// Amp[i] = |Σ e^{-j 2π Freq(i) t_k}| over the analysed events.
	Amp []float64
	// Events is the number of events analysed (N in Eq. 3).
	Events int
	// Ops is the number of complex exponentials evaluated (O in Eq. 3).
	Ops int64
}

// Compute evaluates the amplitude spectrum of the given event train
// over the band, exactly as Eq. (4): |S(ω)| = |Σ_i e^{-jω t_i}|. It
// runs the analyser's bin-major kernel on the calling goroutine alone,
// so the figure experiments time Eq. (3)'s sequential cost.
func Compute(events []simtime.Time, band Band) *Spectrum {
	inc := NewIncremental(band)
	inc.stage(events, nil)
	inc.foldBins(0, len(inc.re))
	inc.events, inc.ops = len(events), int64(len(events))*int64(len(inc.re))
	return inc.Spectrum()
}

// ComputeFast evaluates the same spectrum using one Sincos per event
// plus a complex rotation per bin (the bins form a geometric sequence
// e^{-jω_i t} = e^{-jω_min t}·(e^{-jδω t})^i). It is an ablation
// subject: numerically it accumulates rounding across bins, so the
// reference Compute remains the default.
func ComputeFast(events []simtime.Time, band Band) *Spectrum {
	if !band.Valid() {
		panic("spectrum: invalid band")
	}
	n := band.Bins()
	re := make([]float64, n)
	im := make([]float64, n)
	for _, t := range events {
		ts := t.Seconds()
		sinB, cosB := math.Sincos(2 * math.Pi * band.FMin * ts)
		sinD, cosD := math.Sincos(2 * math.Pi * band.DeltaF * ts)
		// current = e^{-j w t}; step = e^{-j dw t}
		cr, ci := cosB, -sinB
		for i := 0; i < n; i++ {
			re[i] += cr
			im[i] += ci
			cr, ci = cr*cosD+ci*sinD, ci*cosD-cr*sinD
		}
	}
	amp := make([]float64, n)
	for i := range amp {
		amp[i] = math.Hypot(re[i], im[i])
	}
	return &Spectrum{Band: band, Amp: amp, Events: len(events), Ops: int64(len(events)) * int64(n)}
}

// Normalized returns the amplitudes scaled so the maximum is 1 (the
// form plotted in Figure 10). A zero spectrum is returned unchanged.
func (s *Spectrum) Normalized() []float64 {
	max := 0.0
	for _, a := range s.Amp {
		if a > max {
			max = a
		}
	}
	out := make([]float64, len(s.Amp))
	if max == 0 {
		return out
	}
	for i, a := range s.Amp {
		out[i] = a / max
	}
	return out
}

// Mean returns the average amplitude over the band (the reference for
// the α threshold in the peak heuristic).
func (s *Spectrum) Mean() float64 {
	if len(s.Amp) == 0 {
		return 0
	}
	var sum float64
	for _, a := range s.Amp {
		sum += a
	}
	return sum / float64(len(s.Amp))
}

// Incremental maintains the spectrum accumulators event by event, the
// form the paper's lfs++ daemon uses: "whenever we record the ith
// event at time ti ... its contribution to the spectrum is e^{-jωti}".
// Events can also be removed, which Window uses to expire events
// falling out of the observation horizon.
type Incremental struct {
	band   Band
	re, im []float64
	events int
	ops    int64

	// The staged batch, in seconds: secs[:nAdd] are folded in and
	// secs[nAdd:] folded out. Reused, so folding allocates nothing.
	secs  []float64
	nAdd  int
	chunk func(int) // foldChunk, bound once so a sharded fold allocates nothing
}

// The fold is sharded over the shared workpool in chunks of
// binsPerChunk contiguous bins once a batch costs at least inlineWork
// complex exponentials (about 0.3 ms); smaller batches run inline,
// where waking a helper would cost more than it saves.
const (
	binsPerChunk = 16
	inlineWork   = 1 << 14
)

// NewIncremental returns an empty incremental analyser over the band.
func NewIncremental(band Band) *Incremental {
	if !band.Valid() {
		panic("spectrum: invalid band")
	}
	n := band.Bins()
	inc := &Incremental{band: band, re: make([]float64, n), im: make([]float64, n)}
	inc.chunk = inc.foldChunk
	return inc
}

// Band returns the analysed band.
func (inc *Incremental) Band() Band { return inc.band }

// Events returns the number of events currently accumulated.
func (inc *Incremental) Events() int { return inc.events }

// Ops returns the total complex exponentials evaluated so far.
func (inc *Incremental) Ops() int64 { return inc.ops }

// Add accumulates one event.
func (inc *Incremental) Add(t simtime.Time) {
	inc.stage([]simtime.Time{t}, nil)
	inc.fold()
}

// Remove subtracts a previously added event. The caller must ensure
// the event was in fact added; the analyser cannot verify it.
func (inc *Incremental) Remove(t simtime.Time) {
	inc.stage(nil, []simtime.Time{t})
	inc.fold()
}

// stage loads a batch of events to add and events to remove, each in
// the order they are to be folded.
func (inc *Incremental) stage(add, remove []simtime.Time) {
	inc.secs = slices.Grow(inc.secs[:0], len(add)+len(remove))
	for _, t := range add {
		inc.secs = append(inc.secs, t.Seconds())
	}
	for _, t := range remove {
		inc.secs = append(inc.secs, t.Seconds())
	}
	inc.nAdd = len(add)
}

// fold applies the staged batch to every bin, sharding the bins across
// idle cores when the batch is large enough to pay for it.
func (inc *Incremental) fold() {
	n, k := len(inc.re), len(inc.secs)
	if k == 0 {
		return
	}
	if n*k < inlineWork {
		inc.foldBins(0, n)
	} else {
		workpool.Shared().Run((n+binsPerChunk-1)/binsPerChunk, inc.chunk)
	}
	inc.events += 2*inc.nAdd - k
	inc.ops += int64(n) * int64(k)
}

func (inc *Incremental) foldChunk(c int) {
	lo := c * binsPerChunk
	inc.foldBins(lo, min(lo+binsPerChunk, len(inc.re)))
}

// foldBins is the kernel. Each bin in [lo, hi) folds the staged
// additions and then the staged removals, each in order, so it sees
// the same sequence of floating-point operations as folding the events
// one at a time across all bins: the result does not depend on how
// the bins are batched or sharded.
func (inc *Incremental) foldBins(lo, hi int) {
	add, remove := inc.secs[:inc.nAdd], inc.secs[inc.nAdd:]
	for i := lo; i < hi; i++ {
		w := 2 * math.Pi * inc.band.Freq(i)
		re, im := inc.re[i], inc.im[i]
		for _, ts := range add {
			s, c := math.Sincos(w * ts)
			re += c
			im -= s
		}
		for _, ts := range remove {
			s, c := math.Sincos(w * ts)
			re -= c
			im += s
		}
		inc.re[i], inc.im[i] = re, im
	}
}

// Reset clears the accumulators.
func (inc *Incremental) Reset() {
	for i := range inc.re {
		inc.re[i] = 0
		inc.im[i] = 0
	}
	inc.events = 0
}

// Spectrum materialises the current amplitude spectrum.
func (inc *Incremental) Spectrum() *Spectrum {
	amp := make([]float64, len(inc.re))
	for i := range amp {
		amp[i] = math.Hypot(inc.re[i], inc.im[i])
	}
	return &Spectrum{Band: inc.band, Amp: amp, Events: inc.events, Ops: inc.ops}
}

// Window is an incremental analyser over a sliding observation horizon
// H: events older than H before the latest Observe call are expired.
type Window struct {
	inc     *Incremental
	horizon simtime.Duration
	buf     []simtime.Time // chronological
}

// NewWindow returns a sliding-window analyser with horizon h.
func NewWindow(band Band, h simtime.Duration) *Window {
	if h <= 0 {
		panic("spectrum: window horizon must be positive")
	}
	return &Window{inc: NewIncremental(band), horizon: h}
}

// Horizon returns the observation horizon H.
func (w *Window) Horizon() simtime.Duration { return w.horizon }

// Events returns the number of events currently inside the window.
func (w *Window) Events() int { return w.inc.events }

// Observe adds a batch of events (must be chronological and not before
// previously observed events) and expires those older than H relative
// to now, in one fold of the accumulators.
func (w *Window) Observe(now simtime.Time, events []simtime.Time) {
	w.buf = append(w.buf, events...)
	cutoff := now.Add(-w.horizon)
	drop := 0
	for drop < len(w.buf) && w.buf[drop] < cutoff {
		drop++
	}
	w.inc.stage(events, w.buf[:drop])
	w.inc.fold()
	if drop > 0 {
		w.buf = append(w.buf[:0], w.buf[drop:]...)
	}
}

// Spectrum materialises the spectrum of the events inside the window.
func (w *Window) Spectrum() *Spectrum { return w.inc.Spectrum() }

// Reset clears the window.
func (w *Window) Reset() {
	w.inc.Reset()
	w.buf = w.buf[:0]
}
