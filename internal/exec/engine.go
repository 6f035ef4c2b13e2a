package exec

import (
	"fmt"
	"math"
	"sync"
	"unsafe"

	"ninjagap/internal/cache"
	"ninjagap/internal/machine"
	"ninjagap/internal/vm"
)

// barrierCycles is the fork-join overhead charged to every parallel-loop
// segment (thread wakeup plus barrier), preventing unrealistic scaling of
// tiny loops.
const barrierCycles = 3000

type engine struct {
	prog      *vm.Prog
	m         *machine.Machine
	arrays    []*vm.Array
	opt       Options
	W         int
	wMask     uint32 // (1<<W)-1: the full active mask
	lineBytes int
	lineMask  uint64 // ^(lineBytes-1); machine.Validate makes lineBytes a power of two
	bp        *boundProg
	threads   []*threadCtx
	pool      *sync.Pool
	coresUsed int
	res       Result

	// Per-run cost-model constants for the few charges whose lane count is
	// only known dynamically (gather/scatter element counts).
	l1Latency           float64
	loadPort, storePort machine.Port
	gatherC, scatterC   machine.Cost
	hwGather, hwScatter bool

	reduceInit []float64 // scratch for parallel-reduction init snapshots
	cores      []coreAgg // flushSegment's per-core scratch, indexed by core
}

// coreAgg is one core's share of a segment: its threads' summed compute
// and stall cycles and how many threads it runs.
type coreAgg struct {
	compute float64
	stall   float64
	k       int
}

// threadPools pools thread contexts (register file, mask stack, private
// cache hierarchy) per distinct (machine model, share factor, prefetch)
// configuration, so a long-lived process stops paying allocation and GC for
// every measured cell. Hierarchy geometry depends on exactly that key.
var threadPools sync.Map // string -> *sync.Pool

// Run executes prog on machine m with the named arrays bound. It returns
// the functional result in the arrays (mutated in place) and the simulated
// performance result.
func Run(prog *vm.Prog, arrays map[string]*vm.Array, m *machine.Machine, opt Options) (*Result, error) {
	e, err := newEngine(prog, arrays, m, opt)
	if err != nil {
		return nil, err
	}
	defer e.releaseThreads()

	if err := e.runTop(); err != nil {
		return nil, err
	}

	e.finish()
	r := e.res
	return &r, nil
}

// newEngine validates the inputs and builds a ready-to-run engine: arrays
// laid out, program bound, thread contexts drawn from the pool. The caller
// owns releaseThreads.
func newEngine(prog *vm.Prog, arrays map[string]*vm.Array, m *machine.Machine, opt Options) (*engine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	e := &engine{prog: prog, m: m, opt: opt, lineBytes: m.Caches[0].LineBytes}
	e.lineMask = ^uint64(e.lineBytes - 1)
	e.l1Latency = m.Caches[0].Latency
	e.loadPort = m.Cost(machine.OpLoad).Port
	e.storePort = m.Cost(machine.OpStore).Port
	e.gatherC = m.Cost(machine.OpGatherElem)
	e.scatterC = m.Cost(machine.OpScatterElem)
	e.hwGather = m.Feat.HWGather
	e.hwScatter = m.Feat.HWScatter
	eb := prog.ElemBytes
	if eb == 0 {
		eb = 4
	}
	e.W = m.Lanes(eb)
	e.wMask = (1 << uint(e.W)) - 1

	// Bind arrays in program order and lay them out in a sparse virtual
	// address space so distinct arrays never share cache lines.
	base := uint64(1 << 20)
	e.arrays = make([]*vm.Array, 0, len(prog.Arrays))
	for _, ref := range prog.Arrays {
		a, ok := arrays[ref.Name]
		if !ok {
			return nil, fmt.Errorf("exec: prog %s: array %q not bound", prog.Name, ref.Name)
		}
		if a.ElemBytes == 0 {
			a.ElemBytes = ref.ElemBytes
		}
		a.Base = base
		sz := uint64(len(a.Data)*a.ElemBytes) + 4096
		base += (sz + 4095) / 4096 * 4096
		e.arrays = append(e.arrays, a)
	}

	// Link the program: flatten the structured body, then bind machine
	// costs and array references onto the flat instruction stream.
	e.bp = e.bind(prog.Flatten())

	nt := opt.Threads
	if nt <= 0 {
		nt = m.HWThreads()
	}
	e.coresUsed = nt
	if e.coresUsed > m.Cores {
		e.coresUsed = m.Cores
	}
	e.cores = make([]coreAgg, e.coresUsed)
	pf := m.Feat.HWPrefetch && !opt.DisablePrefetch
	key := fmt.Sprintf("%016x|%d|%t", m.Fingerprint(), e.coresUsed, pf)
	poolI, _ := threadPools.LoadOrStore(key, &sync.Pool{})
	e.pool = poolI.(*sync.Pool)
	e.threads = make([]*threadCtx, 0, nt)
	for t := 0; t < nt; t++ {
		e.threads = append(e.threads, e.getThread(t, pf))
	}
	e.res.Threads = nt
	return e, nil
}

// lineOf rounds an address down to its cache-line base.
func (e *engine) lineOf(addr uint64) uint64 { return addr & e.lineMask }

// getThread takes a context from the pool (or builds one) and resets it to
// the fresh-context state: zero registers, full mask, cold caches.
func (e *engine) getThread(id int, prefetch bool) *threadCtx {
	var t *threadCtx
	if v := e.pool.Get(); v != nil {
		t = v.(*threadCtx)
	} else {
		t = &threadCtx{
			hier: cache.New(e.m, cache.Config{ShareFactor: e.coresUsed, Prefetch: prefetch}),
		}
	}
	t.e = e
	t.id = id
	n := e.prog.NumRegs * vm.MaxLanes
	if cap(t.regs) < n {
		t.regs = make([]float64, n)
	} else {
		t.regs = t.regs[:n]
		clear(t.regs)
	}
	t.regBase = unsafe.Pointer(&t.regs[0])
	t.nFused = 0
	t.mask = t.fullMask()
	t.act = e.W
	t.maskStack = t.maskStack[:0]
	t.cost.reset()
	t.hier.Reset()
	t.lastDRAM = 0
	t.err = nil
	t.whileIter = 0
	return t
}

// releaseThreads returns the contexts to the pool. The engine pointer is
// cleared so a pooled context cannot pin a finished run's memory. Each
// thread's fused-dispatch tally is folded into the process-wide counter
// here, once per run, keeping the hot path free of atomics.
func (e *engine) releaseThreads() {
	for _, t := range e.threads {
		if t.nFused != 0 {
			fusedInstrs.Add(t.nFused)
			t.nFused = 0
		}
		t.e = nil
		e.pool.Put(t)
	}
	e.threads = nil
}

// runTop walks the top-level body: sequential stretches execute on thread
// 0; each parallel loop is split across all threads. Every stretch and
// every parallel loop is a "segment" whose time is the max of its core
// time and its bandwidth time.
func (e *engine) runTop() error {
	main := e.threads[0]
	top := e.bp.top
	for i := top.Start; i < top.End; {
		bi := &e.bp.instrs[i]
		// A fused superinstruction covers bi.fuse trailing instructions
		// (its first element is never a parallel loop, see fuse.go).
		adv := 1 + int32(bi.fuse)
		if bi.op != vm.OpParLoop || len(e.threads) == 1 {
			bi.fn(main, bi)
			if main.err != nil {
				return main.err
			}
			i += adv
			continue
		}
		// Close the current sequential segment before the parallel loop.
		e.flushSegment(e.threads[:1], false)
		if err := e.parLoop(bi); err != nil {
			return err
		}
		i += adv
	}
	e.flushSegment(e.threads[:1], false)
	return nil
}

// parLoop runs one parallel loop across all threads and closes it as a
// segment.
func (e *engine) parLoop(bi *bInstr) error {
	main := e.threads[0]
	n := main.tripCount(bi)
	T := int64(len(e.threads))

	// Seed every worker with the main thread's live register state.
	for _, t := range e.threads[1:] {
		copy(t.regs, main.regs)
	}
	need := len(bi.reduceRegs) * vm.MaxLanes
	if cap(e.reduceInit) < need {
		e.reduceInit = make([]float64, need)
	}
	init := e.reduceInit[:need]
	for ri, off := range bi.reduceRegs {
		copy(init[ri*vm.MaxLanes:(ri+1)*vm.MaxLanes], main.reg(off)[:])
	}

	// Workers run in thread order on the calling goroutine. Iterations of
	// one parallel loop may alias (the engine does not prove independence),
	// so a fixed order is what makes every reported number independent of
	// GOMAXPROCS and host scheduling.
	for ti := int64(0); ti < T; ti++ {
		e.runWorker(bi, ti, n, T)
	}
	for _, t := range e.threads {
		if t.err != nil {
			return t.err
		}
	}

	// Cross-thread reduction combine (deterministic thread order).
	for ri, off := range bi.reduceRegs {
		acc := main.reg(off)
		iv := init[ri*vm.MaxLanes : (ri+1)*vm.MaxLanes]
		for l := 0; l < vm.MaxLanes; l++ {
			switch bi.reduceOp {
			case vm.OpAdd:
				sum := iv[l]
				for _, t := range e.threads {
					sum += t.reg(off)[l] - iv[l]
				}
				acc[l] = sum
			case vm.OpMin:
				v := iv[l]
				for _, t := range e.threads {
					v = math.Min(v, t.reg(off)[l])
				}
				acc[l] = v
			case vm.OpMax:
				v := iv[l]
				for _, t := range e.threads {
					v = math.Max(v, t.reg(off)[l])
				}
				acc[l] = v
			}
		}
	}

	e.flushSegment(e.threads, true)
	return nil
}

// runWorker executes thread ti's share of a parallel loop over n
// iterations split across T threads.
func (e *engine) runWorker(bi *bInstr, ti, n, T int64) {
	t := e.threads[ti]
	if bi.chunk > 0 {
		// Round-robin chunks: an idealized dynamic schedule that balances
		// irregular iteration costs.
		ck := int64(bi.chunk)
		for c := ti * ck; c < n; c += T * ck {
			hi := c + ck
			if hi > n {
				hi = n
			}
			t.loopRange(bi, bi.lo+c, bi.lo+hi)
			if t.err != nil {
				return
			}
		}
		return
	}
	per := (n + T - 1) / T
	lo := ti * per
	hi := lo + per
	if hi > n {
		hi = n
	}
	if lo >= hi {
		return
	}
	t.loopRange(bi, bi.lo+lo, bi.lo+hi)
}

// flushSegment converts the threads' accumulated segment costs into elapsed
// cycles, applies the SMT-overlap and bandwidth models, resets the
// accumulators, and folds statistics into the result.
func (e *engine) flushSegment(threads []*threadCtx, parallel bool) {
	// Per-core grouping: thread t runs on core t % coresUsed.
	cores := e.cores
	clear(cores)
	var segBytes uint64
	empty := true
	for _, t := range threads {
		c := t.cost.computeCycles(e.m.IssueWidth)
		if c > 0 || t.cost.stall > 0 {
			empty = false
		}
		ca := &cores[t.id%e.coresUsed]
		ca.compute += c
		ca.stall += t.cost.stall
		ca.k++
		segBytes += t.hier.DRAMBytes() - t.lastDRAM
		t.lastDRAM = t.hier.DRAMBytes()
		t.cost.addInto(&e.res)
	}
	if empty && segBytes == 0 {
		for _, t := range threads {
			t.cost.reset()
		}
		return
	}

	// SMT model: a core's threads share issue ports; stalls overlap with
	// the sibling threads' compute. T_core = max(C, (C+S)/k). Cores are
	// scanned in index order, so the lowest core wins a tie for critical.
	var coreMax, critC float64
	for _, ca := range cores {
		if ca.k == 0 {
			continue
		}
		tc := ca.compute
		if alt := (ca.compute + ca.stall) / float64(ca.k); alt > tc {
			tc = alt
		}
		if tc > coreMax {
			coreMax = tc
			critC = ca.compute
		}
	}
	if parallel {
		coreMax += barrierCycles
	}

	// Bandwidth roofline: the segment cannot finish faster than its DRAM
	// traffic at peak bandwidth.
	bytesPerCycle := e.m.Mem.BandwidthGBps / e.m.FreqGHz
	bwCycles := float64(segBytes) / bytesPerCycle
	segTime := coreMax
	if bwCycles > segTime {
		segTime = bwCycles
	}

	e.res.Cycles += segTime
	e.res.ComputeCycles += critC
	if coreMax > critC {
		e.res.StallCycles += coreMax - critC
	}
	if segTime > coreMax {
		e.res.BWExtraCycles += segTime - coreMax
	}
	e.res.DRAMBytes += segBytes

	for _, t := range threads {
		t.cost.reset()
	}
}

// finish converts cycles to seconds and classifies the binding constraint.
func (e *engine) finish() {
	r := &e.res
	r.Seconds = r.Cycles / (e.m.FreqGHz * 1e9)
	if r.Seconds > 0 {
		r.GFlops = float64(r.Flops) / r.Seconds / 1e9
	}
	switch {
	case r.BWExtraCycles > 0.3*r.Cycles:
		r.BoundBy = "bandwidth"
	case r.StallCycles > 0.3*r.Cycles:
		r.BoundBy = "latency"
	default:
		r.BoundBy = "compute"
	}
	// Aggregate cache stats across threads.
	if len(e.threads) > 0 {
		nl := len(e.threads[0].hier.Stats())
		r.CacheStats = make([]cache.LevelStats, nl)
		for _, t := range e.threads {
			for i, s := range t.hier.Stats() {
				r.CacheStats[i].Accesses += s.Accesses
				r.CacheStats[i].Hits += s.Hits
				r.CacheStats[i].Misses += s.Misses
				r.CacheStats[i].PrefetchHits += s.PrefetchHits
				r.CacheStats[i].Prefetches += s.Prefetches
				r.CacheStats[i].Writebacks += s.Writebacks
			}
		}
	}
}
