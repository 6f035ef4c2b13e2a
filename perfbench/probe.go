package main

// The cache canned-stream probe: fixed address streams run through each
// of the cache model's access paths on the WestmereX980 and KnightsFerry
// hierarchies. The paths are documented as having identical side
// effects, so the probe also checks that Stats() and DRAMBytes() agree
// across them on the same stream.

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"ninjagap/internal/cache"
	"ninjagap/internal/machine"
)

const lineBytes = 64

// probeStream is a sequence of line-aligned addresses.
type probeStream struct {
	name  string
	addrs []uint64
}

// probeStreams builds the four canned streams of n accesses each:
//   - unit: 4-byte elements in ascending order, sixteen touches per line;
//   - stride: one touch per 64-byte line, ascending, over 16n bytes;
//   - random: uniform lines of a 64 MiB region;
//   - chase: a pointer chase, a random cyclic order over the lines of a
//     4 MiB region (inside Westmere's LLC, far outside KnightsFerry's).
func probeStreams(n int) []probeStream {
	r := rand.New(rand.NewSource(42))
	unit := make([]uint64, n)
	stride := make([]uint64, n)
	random := make([]uint64, n)
	for i := range unit {
		unit[i] = uint64(i*4) &^ (lineBytes - 1)
		stride[i] = uint64(i * lineBytes)
		random[i] = uint64(r.Intn(64<<20/lineBytes)) * lineBytes
	}
	nodes := 4 << 20 / lineBytes
	perm := r.Perm(nodes)
	next := make([]int, nodes)
	for i := range perm {
		next[perm[i]] = perm[(i+1)%nodes]
	}
	chase := make([]uint64, n)
	at := perm[0]
	for i := range chase {
		chase[i] = uint64(at) * lineBytes
		at = next[at]
	}
	return []probeStream{{"unit", unit}, {"stride", stride}, {"random", random}, {"chase", chase}}
}

func newHierarchy(m *machine.Machine) *cache.Hierarchy {
	return cache.New(m, cache.Config{Prefetch: true})
}

// pathOutcome is what one path left behind on one stream.
type pathOutcome struct {
	stats []cache.LevelStats
	dram  uint64
	stall float64 // read-miss stall, charged as AccessRun does
	ns    float64 // host nanoseconds per access
}

// runAccessCost feeds the stream through AccessCost.
func runAccessCost(m *machine.Machine, s []uint64) pathOutcome {
	h := newHierarchy(m)
	l1, mlp := m.Caches[0].Latency, float64(m.Mem.MLP)
	var stall float64
	t0 := time.Now()
	for _, a := range s {
		if lvl, lat := h.AccessCost(a, false); lvl != cache.L1 {
			if pen := lat - l1; pen > 0 {
				stall += pen / mlp
			}
		}
	}
	ns := float64(time.Since(t0)) / float64(len(s))
	return pathOutcome{h.Stats(), h.DRAMBytes(), stall, ns}
}

// runTouchLine feeds the stream through TouchLine with one cursor, as
// the engine does for one instruction's address stream.
func runTouchLine(m *machine.Machine, s []uint64) pathOutcome {
	h := newHierarchy(m)
	l1, mlp := m.Caches[0].Latency, float64(m.Mem.MLP)
	var cur cache.LineCursor
	var stall float64
	t0 := time.Now()
	for _, a := range s {
		if lvl, lat := h.TouchLine(&cur, a, false); lvl != cache.L1 {
			if pen := lat - l1; pen > 0 {
				stall += pen / mlp
			}
		}
	}
	ns := float64(time.Since(t0)) / float64(len(s))
	return pathOutcome{h.Stats(), h.DRAMBytes(), stall, ns}
}

// runAccessRun feeds an ascending line stream through AccessRun in runs
// of sixteen lines (one 1 KiB vector run each).
func runAccessRun(m *machine.Machine, s []uint64) pathOutcome {
	h := newHierarchy(m)
	l1, mlp := m.Caches[0].Latency, float64(m.Mem.MLP)
	var stall float64
	t0 := time.Now()
	for i := 0; i < len(s); i += 16 {
		h.AccessRun(s[i], min(16, len(s)-i), false, l1, mlp, &stall)
	}
	ns := float64(time.Since(t0)) / float64(len(s))
	return pathOutcome{h.Stats(), h.DRAMBytes(), stall, ns}
}

// probeMachines are the hierarchies the probe runs on.
func probeMachines() []*machine.Machine {
	return []*machine.Machine{machine.WestmereX980(), machine.KnightsFerry()}
}

// cacheProbe runs every stream through every applicable path, reps
// times, and returns the per-layer timings (median over reps) plus one
// message per disagreement between paths.
func cacheProbe(n, reps int) (metrics map[string][]float64, checks int, failures []string) {
	metrics = map[string][]float64{}
	for _, m := range probeMachines() {
		for _, s := range probeStreams(n) {
			for rep := 0; rep < reps; rep++ {
				ac := runAccessCost(m, s.addrs)
				tl := runTouchLine(m, s.addrs)
				record := func(key string, ns float64) { metrics[key] = append(metrics[key], ns) }
				record(fmt.Sprintf("cache.ns_per_access.%s.%s", s.name, m.Name), ac.ns)
				others := map[string]pathOutcome{"TouchLine": tl}
				if s.name == "unit" || s.name == "chase" {
					record(fmt.Sprintf("cache.ns_per_touch.%s.%s", s.name, m.Name), tl.ns)
				}
				if s.name == "stride" {
					ar := runAccessRun(m, s.addrs)
					record("cache.ns_per_line.accessrun."+m.Name, ar.ns)
					others["AccessRun"] = ar
				}
				if rep > 0 {
					continue // the outcome is the same every repetition
				}
				for path, o := range others {
					checks++
					if !reflect.DeepEqual(o.stats, ac.stats) || o.dram != ac.dram || o.stall != ac.stall {
						failures = append(failures, fmt.Sprintf("cache probe: %s disagrees with AccessCost on %s/%s", path, s.name, m.Name))
					}
				}
			}
		}
	}
	return metrics, checks, failures
}
