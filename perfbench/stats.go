package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile of xs (q in [0,1])
// and how many samples lie strictly beyond its rank. xs is not
// modified. An empty input yields (0, 0).
func percentile(xs []float64, q float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread returns (Q3 - Q1) / median of xs, with the quartiles
// taken by the "exclusive" method of Python's statistics.quantiles(n=4).
// It returns 0 when fewer than two values or a zero median leave it
// undefined.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	m := median(xs)
	if n < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		// statistics.quantiles(method="exclusive"): position k*(n+1)/4,
		// clamped to [1, n-1], interpolated in exact integer steps.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return math.Abs(q(3)-q(1)) / math.Abs(m)
}

// digest accumulates simulated outcomes into an order-sensitive
// 64-bit FNV-1a hash. Floats hash by their exact bits, so two runs
// agree only if every outcome is bit-identical.
type digest struct{ words []uint64 }

func (d *digest) u64(v uint64)  { d.words = append(d.words, v) }
func (d *digest) i64(v int64)   { d.u64(uint64(v)) }
func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digest) str(v string)  { d.i64(int64(len(v))); d.words = append(d.words, fnvString(v)) }
func (d *digest) sum() uint64   { return fnvWords(d.words) }
func fnvString(s string) uint64 { h := fnv.New64a(); h.Write([]byte(s)); return h.Sum64() }
func fnvWords(ws []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return h.Sum64()
}
