package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is the part of a pprof profile (profile.proto) the ledger
// needs: each sample's stack, leaf first, as function names with
// inlined frames expanded innermost first, and its values.
type profile struct {
	sampleTypes []string // "<type>/<unit>" per value index
	samples     []profileSample
}

type profileSample struct {
	stack  []string
	values []int64
}

// valueIndex returns the index of the named sample type ("cpu/nanoseconds",
// "alloc_space/bytes"), or -1.
func (p *profile) valueIndex(name string) int {
	for i, t := range p.sampleTypes {
		if t == name {
			return i
		}
	}
	return -1
}

// parseProfile decodes a gzipped (or raw) protobuf profile as written
// by runtime/pprof. Only the fields the ledger reads are decoded.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		data = raw
	}
	type valueType struct{ typ, unit int64 }
	type sample struct {
		locs   []uint64
		values []int64
	}
	type line struct{ fn uint64 }
	var (
		types   []valueType
		samples []sample
		locs    = map[uint64][]line{}
		funcs   = map[uint64]int64{} // function id -> name string index
		strs    []string
	)
	err := forEachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t valueType
			err := forEachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					t.typ = int64(v)
				case 2:
					t.unit = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s sample
			err := forEachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendVarints(wire, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var lines []line
			err := forEachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					var l line
					err := forEachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							l.fn = v
						}
						return nil
					})
					lines = append(lines, l)
					return err
				}
				return nil
			})
			locs[id] = lines
			return err
		case 5: // function
			var id uint64
			var name int64
			err := forEachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, t := range types {
		p.sampleTypes = append(p.sampleTypes, str(t.typ)+"/"+str(t.unit))
	}
	for _, s := range samples {
		ps := profileSample{values: s.values}
		for _, id := range s.locs {
			for _, l := range locs[id] {
				ps.stack = append(ps.stack, str(funcs[l.fn]))
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// forEachField walks the top level of one protobuf message, handing
// varint fields as v and length-delimited fields as b. Fixed-width
// fields are skipped.
func forEachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			data = data[8:]
			continue
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated varint field in either encoding:
// one unpacked element (wire type 0) or a packed run (wire type 2).
func appendVarints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Layer names the ledger attributes to. Every repo package is a layer
// of its own, named after the last element of its import path; the
// benchmark's own frames are "bench".
const (
	layerGC    = "runtime.gc"
	layerOther = "other"
)

// gcFrames are prefixes of runtime functions whose presence anywhere
// in a stack marks the sample as garbage-collector work, whichever
// repo frame triggered it (an allocation's mark assist included).
var gcFrames = []string{
	"runtime.gcBgMarkWorker",
	"runtime.gcAssistAlloc",
	"runtime.gcDrain",
	"runtime.gcStart",
	"runtime.gcMarkDone",
	"runtime.gcMarkTermination",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.markroot",
	"runtime.scanobject",
	"runtime.sweepone",
	"runtime.GC",
}

// funcPackage returns the import path of a function symbol such as
// "repro/selftune/cluster.(*Cluster).admit" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf maps an import path to its layer, or "" outside the repo.
func layerOf(pkg string) string {
	switch {
	case pkg == "repro/perfbench" || pkg == "main":
		return "bench"
	case pkg == "repro" || !strings.HasPrefix(pkg, "repro/"):
		return ""
	}
	return pkg[strings.LastIndexByte(pkg, '/')+1:]
}

// sampleLayer attributes one stack (leaf first) to a layer: GC work
// to runtime.gc, otherwise the package of the innermost repo frame,
// otherwise "other".
func sampleLayer(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return layerGC
			}
		}
	}
	for _, fn := range stack {
		if l := layerOf(funcPackage(fn)); l != "" {
			return l
		}
	}
	return layerOther
}

// attribute sums value index vi of every sample by layer.
func attribute(p *profile, vi int) map[string]int64 {
	out := map[string]int64{}
	for _, s := range p.samples {
		if vi < len(s.values) {
			out[sampleLayer(s.stack)] += s.values[vi]
		}
	}
	return out
}

// shares converts per-layer totals into fractions of their sum; the
// fractions of all layers, "other" included, add up to 1.
func shares(totals map[string]int64) map[string]float64 {
	var sum int64
	for _, v := range totals {
		sum += v
	}
	out := map[string]float64{}
	if sum <= 0 {
		return out
	}
	for k, v := range totals {
		out[k] = float64(v) / float64(sum)
	}
	return out
}

// clusterPhases maps the cluster's tick-phase methods to the phase
// names of the ledger.
var clusterPhases = map[string]string{
	"repro/selftune/cluster.(*Cluster).processDepartures":   "departures",
	"repro/selftune/cluster.(*Cluster).rebalance":           "rebalance",
	"repro/selftune/cluster.(*Cluster).generateArrivals":    "arrivals",
	"repro/selftune/cluster.(*Cluster).drainQueues":         "admit",
	"repro/selftune/cluster.(*Cluster).admit":               "admit",
	"repro/selftune/cluster.(*Cluster).autoscale":           "autoscale",
	"repro/selftune/cluster.(*Cluster).advance":             "advance",
	"repro/selftune/cluster.(*Cluster).foldLoads":           "fold",
	"repro/selftune/cluster.(*Cluster).foldRealmTicks":      "fold",
	"repro/selftune/cluster.(*Cluster).foldRequestComplete": "fold",
}

// phaseOf returns the phase of a phase method or of a closure inside
// one (the tick advance runs on pool workers as advance.func1), or "".
func phaseOf(fn string) string {
	if ph, ok := clusterPhases[fn]; ok {
		return ph
	}
	if i := strings.Index(fn, ".func"); i > 0 {
		return clusterPhases[fn[:i]]
	}
	return ""
}

// phaseNames lists the cluster phases in tick order.
var phaseNames = []string{"departures", "rebalance", "arrivals", "admit", "autoscale", "advance", "fold"}

// phaseShares returns, per cluster phase, the share of all of value
// index vi spent under that phase. A sample counts for the innermost
// phase method on its stack, so admissions made while generating
// arrivals count as admit and request folding inside the advance
// counts as fold; the phases never overlap.
func phaseShares(p *profile, vi int) map[string]float64 {
	totals := map[string]int64{}
	var all int64
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		all += s.values[vi]
		for _, fn := range s.stack {
			if ph := phaseOf(fn); ph != "" {
				totals[ph] += s.values[vi]
				break
			}
		}
	}
	out := map[string]float64{}
	for _, ph := range phaseNames {
		if all > 0 {
			out[ph] = float64(totals[ph]) / float64(all)
		} else {
			out[ph] = 0
		}
	}
	return out
}
