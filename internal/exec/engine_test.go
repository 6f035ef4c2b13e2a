package exec

import (
	"strings"
	"testing"

	"ninjagap/internal/machine"
	"ninjagap/internal/vm"
)

// buildStream builds a pure streaming store kernel writing n elements.
func buildStream(n int64) *vm.Prog {
	b := vm.NewBuilder("stream")
	out := b.Array("out", 4)
	v := b.Const(1)
	i := b.ParVecLoop(0, n)
	b.Store(out, v, i, 1)
	b.End()
	return b.MustBuild()
}

func TestDRAMTrafficExactForColdStream(t *testing.T) {
	const n = 1 << 16
	m := machine.WestmereX980()
	arrays := map[string]*vm.Array{"out": vm.NewArray("out", 4, n)}
	r, err := Run(buildStream(n), arrays, m, Options{Threads: 1, DisablePrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	// Write-allocate: each line is fetched once; dirty lines are written
	// back only when evicted, so traffic is at least the fetches and at
	// most fetch + full writeback.
	lines := uint64(n * 4 / 64)
	if r.DRAMBytes < lines*64 || r.DRAMBytes > 2*lines*64 {
		t.Errorf("stream DRAM bytes = %d, want in [%d, %d]", r.DRAMBytes, lines*64, 2*lines*64)
	}
}

func TestBandwidthBoundClassification(t *testing.T) {
	const n = 1 << 21
	m := machine.WestmereX980()
	arrays := map[string]*vm.Array{"out": vm.NewArray("out", 4, n)}
	r, err := Run(buildStream(n), arrays, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.BoundBy != "bandwidth" {
		t.Errorf("pure store stream bound by %q, want bandwidth (%v)", r.BoundBy, r)
	}
	// Time must be at least bytes / peak bandwidth.
	minSeconds := float64(r.DRAMBytes) / (m.Mem.BandwidthGBps * 1e9)
	if r.Seconds < minSeconds*0.99 {
		t.Errorf("time %.3g s below bandwidth floor %.3g s", r.Seconds, minSeconds)
	}
}

func TestBarrierChargedPerParallelLoop(t *testing.T) {
	// A program with k tiny parallel loops costs ~k barriers.
	build := func(k int) *vm.Prog {
		b := vm.NewBuilder("barriers")
		out := b.Array("out", 4)
		v := b.Const(1)
		for j := 0; j < k; j++ {
			i := b.ParVecLoop(0, 64)
			b.Store(out, v, i, 1)
			b.End()
		}
		return b.MustBuild()
	}
	m := machine.WestmereX980()
	run := func(k int) float64 {
		arrays := map[string]*vm.Array{"out": vm.NewArray("out", 4, 64)}
		r, err := Run(build(k), arrays, m, Options{Threads: 6})
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	c1, c4 := run(1), run(4)
	if diff := c4 - c1; diff < 2.5*barrierCycles || diff > 5*barrierCycles {
		t.Errorf("4 parloops vs 1: extra %.0f cycles, want ~3 barriers (%d each)", diff, barrierCycles)
	}
}

func TestSMTComputeBoundNeutral(t *testing.T) {
	// Compute-bound work gains nothing from SMT: 12 threads on 6 cores
	// should be within a few percent of 6 threads.
	const n = 1 << 14
	p := buildComputeHeavy(n, true, true)
	m := machine.WestmereX980()
	r6 := mustRun(t, p, saxpyArrays(n), m, Options{Threads: 6})
	r12 := mustRun(t, p, saxpyArrays(n), m, Options{Threads: 12})
	ratio := r6.Cycles / r12.Cycles
	if ratio > 1.25 || ratio < 0.8 {
		t.Errorf("SMT changed compute-bound time by %.2fx, want ~1x", ratio)
	}
}

// TestFlushSegmentTieIsDeterministic pins flushSegment's tie-break: when
// two cores tie on segment time but split it differently between compute
// and stall, the lowest core is the critical one on every run, so the
// reported compute/stall split cannot depend on iteration order.
func TestFlushSegmentTieIsDeterministic(t *testing.T) {
	m := machine.WestmereX980()
	arrays := map[string]*vm.Array{"out": vm.NewArray("out", 4, 64)}
	for run := 0; run < 200; run++ {
		e, err := newEngine(buildStream(64), arrays, m, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Core 0: 60 compute + 40 stall, T = max(60, (60+40)/1) = 100.
		// Core 1: 100 compute, T = 100.
		e.threads[0].cost.port[0], e.threads[0].cost.stall = 60, 40
		e.threads[1].cost.port[0] = 100
		e.flushSegment(e.threads, false)
		e.finish()
		e.releaseThreads()
		r := e.res
		if r.Cycles != 100 || r.ComputeCycles != 60 || r.StallCycles != 40 || r.BoundBy != "latency" {
			t.Fatalf("run %d: cycles %v, compute %v, stall %v, bound by %s; want core 0's 100 = 60 compute + 40 stall, latency",
				run, r.Cycles, r.ComputeCycles, r.StallCycles, r.BoundBy)
		}
	}
}

func TestWorkerErrorPropagates(t *testing.T) {
	b := vm.NewBuilder("oob-par")
	out := b.Array("out", 4)
	v := b.Const(1)
	i := b.ParVecLoop(0, 1000)
	b.Store(out, v, i, 1)
	b.End()
	p := b.MustBuild()
	arrays := map[string]*vm.Array{"out": vm.NewArray("out", 4, 100)}
	_, err := Run(p, arrays, machine.WestmereX980(), Options{Threads: 6})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("worker OOB not propagated: %v", err)
	}
}

func TestChunkScheduleCoversRange(t *testing.T) {
	b := vm.NewBuilder("chunked")
	out := b.Array("out", 4)
	one := b.Const(1)
	i := b.ParLoop(0, 103)
	b.SetChunk(4)
	b.StoreScalar(out, one, i)
	b.End()
	p := b.MustBuild()
	arrays := map[string]*vm.Array{"out": vm.NewArray("out", 4, 103)}
	if _, err := Run(p, arrays, machine.WestmereX980(), Options{Threads: 5}); err != nil {
		t.Fatal(err)
	}
	for idx, v := range arrays["out"].Data {
		if v != 1 {
			t.Fatalf("chunked parloop missed iteration %d", idx)
		}
	}
}

func TestDynamicParallelTripCount(t *testing.T) {
	b := vm.NewBuilder("dynpar")
	out := b.Array("out", 4)
	one := b.Const(1)
	cnt := b.Const(77)
	i := b.OpenLoop(true, false, 0, 0, cnt)
	b.StoreScalar(out, one, i)
	b.End()
	p := b.MustBuild()
	arrays := map[string]*vm.Array{"out": vm.NewArray("out", 4, 100)}
	if _, err := Run(p, arrays, machine.WestmereX980(), Options{Threads: 4}); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range arrays["out"].Data {
		sum += v
	}
	if sum != 77 {
		t.Fatalf("dynamic parallel trip wrote %g elements, want 77", sum)
	}
}

func TestSequentialSegmentsBetweenParloops(t *testing.T) {
	// parloop / scalar fixup / parloop: the scalar segment runs on the
	// main thread and its effects are visible to the second loop.
	b := vm.NewBuilder("phases")
	buf := b.Array("buf", 4)
	one := b.Const(1)
	i := b.ParVecLoop(0, 64)
	b.Store(buf, one, i, 1)
	b.End()
	// Scalar: buf[0] = 42.
	v42 := b.Const(42)
	zero := b.Const(0)
	b.StoreScalar(buf, v42, zero)
	// Second parloop doubles everything.
	j := b.ParVecLoop(0, 64)
	x := b.Load(buf, j, 1)
	two := b.Const(2)
	b.Store(buf, b.Op2(vm.OpMul, x, two), j, 1)
	b.End()
	p := b.MustBuild()
	arrays := map[string]*vm.Array{"buf": vm.NewArray("buf", 4, 64)}
	if _, err := Run(p, arrays, machine.WestmereX980(), Options{Threads: 6}); err != nil {
		t.Fatal(err)
	}
	if arrays["buf"].Data[0] != 84 {
		t.Errorf("buf[0] = %g, want 84 (sequential segment lost)", arrays["buf"].Data[0])
	}
	if arrays["buf"].Data[1] != 2 {
		t.Errorf("buf[1] = %g, want 2", arrays["buf"].Data[1])
	}
}

func TestElemBytesControlsWidth(t *testing.T) {
	// An 8-byte program runs at the machine's f64 width: on Westmere 2
	// lanes, so a 2-element store per vector iteration.
	b := vm.NewBuilder("f64")
	b.ElemBytes(8)
	out := b.Array("out", 8)
	v := b.Const(7)
	i := b.VecLoop(0, 10)
	b.Store(out, v, i, 1)
	b.End()
	p := b.MustBuild()
	arrays := map[string]*vm.Array{"out": vm.NewArray("out", 8, 10)}
	r, err := Run(p, arrays, machine.WestmereX980(), Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 10 elements at width 2 = 5 store instructions.
	if got := r.ClassCounts[machine.OpStore]; got != 5 {
		t.Errorf("f64 vector stores = %d, want 5", got)
	}
	for idx, x := range arrays["out"].Data {
		if x != 7 {
			t.Fatalf("out[%d] = %g, want 7", idx, x)
		}
	}
}

func TestResultString(t *testing.T) {
	const n = 4096
	r := mustRun(t, buildSaxpyVec(n), saxpyArrays(n), machine.WestmereX980(), Options{Threads: 1})
	s := r.String()
	if !strings.Contains(s, "Mcycles") || !strings.Contains(s, "bound") {
		t.Errorf("Result.String() = %q", s)
	}
	if r.Speedup(r) != 1 {
		t.Error("self speedup should be 1")
	}
}
