package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted
	}
	cases := []struct {
		q          float64
		want       float64
		wantBeyond int
	}{
		{0.99, 990, 10},
		{0.5, 500, 500},
		{1, 1000, 0},
		{0, 1, 999},
	}
	for _, c := range cases {
		got, beyond := percentile(xs, c.q)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("percentile(q=%v) = %v, %d beyond; want %v, %d", c.q, got, beyond, c.want, c.wantBeyond)
		}
	}
	if xs[0] != 1000 {
		t.Errorf("percentile sorted its input in place")
	}
	if v, n := percentile(nil, 0.99); v != 0 || n != 0 {
		t.Errorf("percentile(nil) = %v, %d", v, n)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %v", m)
	}
}

// The spread must agree with Python's
// statistics.quantiles(values, n=4) (method "exclusive"), which is how
// the benchmark's stability is judged.
func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 2, 9, 1, 10, 4, 3, 8, 6, 5}
	want := (8.25 - 2.75) / 5.5
	if got := quartileSpread(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got, want := quartileSpread([]float64{16, 1, 8, 2, 4}), (12.0-1.5)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("single-value spread = %v", got)
	}
}

func TestDigestIsExactAndOrderSensitive(t *testing.T) {
	build := func(f func(d *digest)) uint64 {
		var d digest
		f(&d)
		return d.sum()
	}
	a := build(func(d *digest) { d.i64(3); d.f64(0.1); d.str("realm") })
	if b := build(func(d *digest) { d.i64(3); d.f64(0.1); d.str("realm") }); a != b {
		t.Errorf("equal inputs hashed differently: %x vs %x", a, b)
	}
	if b := build(func(d *digest) { d.f64(0.1); d.i64(3); d.str("realm") }); a == b {
		t.Errorf("reordered inputs hashed equal")
	}
	if b := build(func(d *digest) { d.i64(3); d.f64(math.Nextafter(0.1, 1)); d.str("realm") }); a == b {
		t.Errorf("a one-ulp change went unnoticed")
	}
	// Strings are length-prefixed: "ab"+"c" differs from "a"+"bc".
	x := build(func(d *digest) { d.str("ab"); d.str("c") })
	if y := build(func(d *digest) { d.str("a"); d.str("bc") }); x == y {
		t.Errorf("string boundaries are not part of the digest")
	}
}

func TestCaseSeedsAreDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for seed := uint64(0); seed < 4; seed++ {
		for i := 0; i < 128; i++ {
			s := caseSeed(seed, i)
			if seen[s] {
				t.Fatalf("caseSeed(%d, %d) repeats an earlier seed", seed, i)
			}
			seen[s] = true
		}
	}
}
