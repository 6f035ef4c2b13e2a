package main

// Per-layer metrics from the spans and counters of the traced run. Each
// metric is computed from the workload's own traffic ("main") when that
// traffic reaches the metric's layer, and otherwise from the complement
// session; the harness prints which metrics took the complement.

import (
	"ninjagap/internal/gap"
	"ninjagap/internal/kernels"
)

// source is one set of traced passes.
type source struct {
	name     string
	spans    []*Span
	counters map[string]float64
}

func (s *source) match(pred func(*Span) bool) []*Span {
	var out []*Span
	for _, sp := range s.spans {
		if pred(sp) {
			out = append(out, sp)
		}
	}
	return out
}

func named(names ...string) func(*Span) bool {
	return func(s *Span) bool { return contains(names, s.Name) }
}

func totalSeconds(spans []*Span) float64 {
	t := 0.0
	for _, s := range spans {
		t += s.Seconds()
	}
	return t
}

// medianOf is the median of the spans' durations times scale, 0 when
// there are none.
func medianOf(spans []*Span, scale float64) float64 {
	if len(spans) == 0 {
		return 0
	}
	return median(durations(spans, scale))
}

func durations(spans []*Span, scale float64) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.Seconds() * scale
	}
	return out
}

// layerMetrics computes every per-layer metric. The second result names,
// for each metric that did not come from the main source, the source it
// came from.
func layerMetrics(srcs []*source, probe map[string][]float64) (map[string]metric, map[string]string) {
	m := map[string]metric{}
	from := map[string]string{}
	// pick returns the first source with a span matching pred.
	pick := func(name string, pred func(*Span) bool) (*source, []*Span) {
		for _, s := range srcs {
			if got := s.match(pred); len(got) > 0 {
				if s != srcs[0] {
					from[name] = s.name
				}
				return s, got
			}
		}
		from[name] = "no spans"
		return srcs[0], nil
	}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	// alsoFrom marks metrics derived from the same source as picked.
	alsoFrom := func(picked string, names ...string) {
		for _, n := range names {
			from[n] = from[picked]
		}
	}

	isRun := named("exec.run")
	version := func(serial bool) func(*Span) bool {
		return func(s *Span) bool {
			v, err := kernels.ParseVersion(s.Version)
			return isRun(s) && err == nil && v.Serial() == serial
		}
	}

	// kernels
	_, sp := pick("kernels.prepare_s", named("kernels.prepare"))
	set("kernels.prepare_s", totalSeconds(sp), "s")
	_, sp = pick("kernels.check_s", named("kernels.check"))
	set("kernels.check_s", totalSeconds(sp), "s")

	// exec
	src, runs := pick("exec.run_s", isRun)
	set("exec.run_s", totalSeconds(runs), "s")
	var instrs, dram, l1Acc, l1Miss, l2Acc, l2Miss, llcAcc, llcMiss, pfHits float64
	for _, s := range runs {
		instrs += float64(s.Instrs)
		dram += float64(s.DRAM)
		if len(s.Cache) == 0 {
			continue
		}
		l1Acc += float64(s.Cache[0].Accesses)
		l1Miss += float64(s.Cache[0].Misses)
		if len(s.Cache) >= 3 {
			l2Acc += float64(s.Cache[1].Accesses)
			l2Miss += float64(s.Cache[1].Misses)
		}
		last := s.Cache[len(s.Cache)-1]
		llcAcc += float64(last.Accesses)
		llcMiss += float64(last.Misses)
		for _, l := range s.Cache {
			pfHits += float64(l.PrefetchHits)
		}
	}
	alsoFrom("exec.run_s", "exec.sim_instrs", "exec.ns_per_sim_instr", "exec.fused_frac", "exec.replay_frac",
		"cache.l1.accesses", "cache.l1.miss_ratio", "cache.l2.miss_ratio", "cache.llc.miss_ratio",
		"cache.prefetch_hits", "cache.dram_bytes", "gap.cells_computed", "gap.memo_hit_ratio", "gap.busy_frac")
	set("exec.sim_instrs", instrs, "count")
	set("exec.ns_per_sim_instr", ratio(totalSeconds(runs)*1e9, instrs), "ns")
	set("exec.fused_frac", ratio(src.counters["fused"], instrs), "ratio")
	set("exec.replay_frac", ratio(src.counters["replayed"], instrs), "ratio")
	_, sp = pick("exec.run_s.serial", version(true))
	set("exec.run_s.serial", totalSeconds(sp), "s")
	_, sp = pick("exec.run_s.parallel", version(false))
	set("exec.run_s.parallel", totalSeconds(sp), "s")
	for _, b := range kernels.All() {
		name := "exec.run_s." + b.Name()
		bn := b.Name()
		_, sp = pick(name, func(s *Span) bool { return isRun(s) && s.Label == bn })
		set(name, totalSeconds(sp), "s")
	}

	// cache: exact counts from the engine results, host time from the probe
	set("cache.l1.accesses", l1Acc, "count")
	set("cache.l1.miss_ratio", ratio(l1Miss, l1Acc), "ratio")
	set("cache.l2.miss_ratio", ratio(l2Miss, l2Acc), "ratio")
	set("cache.llc.miss_ratio", ratio(llcMiss, llcAcc), "ratio")
	set("cache.prefetch_hits", pfHits, "count")
	set("cache.dram_bytes", dram, "bytes")
	for name, vs := range probe {
		set(name, median(vs), "ns")
	}

	// gap
	for _, id := range gap.DriverIDs() {
		name := "gap.driver_s." + id
		_, sp = pick(name, func(s *Span) bool { return s.Name == "gap.driver" && s.Label == id })
		set(name, totalSeconds(sp), "s")
	}
	cells := src.match(named("gap.cell"))
	set("gap.cells_computed", float64(len(cells)), "count")
	hits, misses := src.counters["memo_hits"], src.counters["memo_misses"]
	set("gap.memo_hit_ratio", ratio(hits, hits+misses), "ratio")
	var first, last int64
	for i, c := range cells {
		if i == 0 || c.Start < first {
			first = c.Start
		}
		if c.End > last {
			last = c.End
		}
	}
	set("gap.busy_frac", ratio(totalSeconds(cells), float64(jobs())*float64(last-first)/1e9), "ratio")
	// The gap layer's own time: driver and row spans minus the cells
	// they computed (memo hits, waiting on the slowest cell of a batch,
	// assembling figures).
	gsrc, roots := pick("gap.self_s", named("gap.driver", "gap.row"))
	children := map[int64][]*Span{}
	for _, s := range gsrc.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := 0.0
	for _, r := range roots {
		self += selfSeconds(r, children[r.ID])
	}
	set("gap.self_s", self, "s")
	_, sp = pick("gap.emit_s", named("gap.emit"))
	set("gap.emit_s", totalSeconds(sp), "s")

	// lang and compiler
	_, sp = pick("lang.normalize_us", named("lang.normalize"))
	set("lang.normalize_us", medianOf(sp, 1e6), "us")
	_, sp = pick("lang.analyze_us", named("lang.analyze"))
	set("lang.analyze_us", medianOf(sp, 1e6), "us")
	_, sp = pick("compiler.compile_ms", named("compiler.compile"))
	set("compiler.compile_ms", medianOf(sp, 1e3), "ms")
	var hitCompile float64
	for _, s := range sp {
		if s.Label == kindResubmit {
			hitCompile += s.Seconds()
		}
	}
	alsoFrom("compiler.compile_ms", "compiler.hit_compile_frac")
	set("compiler.hit_compile_frac", ratio(hitCompile, totalSeconds(sp)), "ratio")

	// submit
	for _, class := range []string{"hit", "miss"} {
		name := "submit.process_ms." + class
		_, sp = pick(name, func(s *Span) bool { return s.Name == "submit.process" && s.Label == class })
		set(name, medianOf(sp, 1e3), "ms")
	}
	ssrc, _ := pick("submit.memo_hit_ratio", named("submit.process"))
	alsoFrom("submit.memo_hit_ratio", "submit.cells_computed", "submit.body_kb", "store.disk_stores", "store.disk_hits")
	c := ssrc.counters
	set("submit.memo_hit_ratio", ratio(c["submit_hits"], c["submit_accepted"]), "ratio")
	set("submit.cells_computed", c["submit_cells_computed"], "count")
	set("submit.body_kb", ratio(c["body_bytes"], 1024*c["body_count"]), "KB")

	// store
	set("store.disk_stores", c["disk_stores"], "count")
	set("store.disk_hits", c["disk_hits"], "count")
	_, sp = pick("store.put_us", named("store.put"))
	set("store.put_us", medianOf(sp, 1e6), "us")
	_, sp = pick("store.get_us", named("store.get"))
	set("store.get_us", medianOf(sp, 1e6), "us")

	// serve: median HTTP latency minus median Process latency of memo
	// hits, whose Process work is small enough that the difference is
	// the HTTP layer's own
	osrc, httpSpans := pick("serve.overhead_ms", func(s *Span) bool {
		return s.Name == "serve.request" && s.Label == kindResubmit
	})
	procSpans := osrc.match(func(s *Span) bool { return s.Name == "submit.process" && s.Label == "hit" })
	set("serve.overhead_ms", medianOf(httpSpans, 1e3)-medianOf(procSpans, 1e3), "ms")
	alsoFrom("serve.overhead_ms", "serve.rejected")
	set("serve.rejected", osrc.counters["serve_rejected"], "count")
	for name := range from {
		if from[name] == "" {
			delete(from, name)
		}
	}
	return m, from
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
