package exec

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"ninjagap/internal/cache"
	"ninjagap/internal/vm"
)

// threadCtx is one software thread's execution state: a private register
// file, the predication mask stack, a private cache hierarchy, and the
// segment cost accumulator. Contexts are pooled across runs (see engine.go);
// reset() restores the fresh-context invariants.
type threadCtx struct {
	e    *engine
	id   int
	regs []float64 // NumRegs x MaxLanes, flat
	// regBase caches &regs[0]; reg() indexes through it without a slice
	// bounds check (safe: see reg).
	regBase unsafe.Pointer
	mask    uint32 // active-lane bitmask, bits [0,W)
	act     int    // popcount of mask, maintained by the mask stack ops
	// maskStack holds enclosing masks for predicated regions.
	maskStack []uint32
	cost      costAcc
	hier      *cache.Hierarchy
	lastDRAM  uint64
	err       error
	whileIter uint64 // runaway-loop guard
	// nFused counts dynamic instructions executed through fused
	// superinstruction handlers; folded into the process-wide counter when
	// the context is released (see fuse.go).
	nFused uint64
	// memLines is the distinct-line scratch of the slow memory paths
	// (slowLoad/slowStore/gather/scatter). Living on the context, it is
	// neither re-zeroed nor re-allocated per access — the paths track the
	// valid prefix themselves. Sized for the widest user: a small-stride
	// vector access touching up to two lines per lane.
	memLines [2 * vm.MaxLanes]uint64
}

const maxWhileIters = 1 << 32

func (t *threadCtx) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

// reg returns the lane block at a pre-bound register-file offset as a
// fixed-size array pointer: no slice-header construction and no bounds
// check on the hot path. Eliding the check is sound because every offset
// reaching here is reg*MaxLanes for a register index that vm.Prog.Validate
// bounds-checked against NumRegs before binding, and the file is exactly
// NumRegs*MaxLanes floats.
func (t *threadCtx) reg(off int) *[vm.MaxLanes]float64 {
	return (*[vm.MaxLanes]float64)(unsafe.Add(t.regBase, uintptr(off)*unsafe.Sizeof(float64(0))))
}

func (t *threadCtx) fullMask() uint32 { return (1 << uint(t.e.W)) - 1 }

func (t *threadCtx) pushMask(m uint32) {
	t.maskStack = append(t.maskStack, t.mask)
	t.mask = m
	t.act = bits.OnesCount32(m)
}

func (t *threadCtx) popMask() {
	t.mask = t.maskStack[len(t.maskStack)-1]
	t.maskStack = t.maskStack[:len(t.maskStack)-1]
	t.act = bits.OnesCount32(t.mask)
}

// exec runs one arena span; it stops early if an error was recorded. Each
// instruction dispatches through its pre-bound handler, and a fused
// superinstruction advances past the pair it covers (fuse is the number of
// trailing instructions the handler already executed).
func (t *threadCtx) exec(s vm.Span) {
	ins := t.e.bp.instrs
	for i := s.Start; i < s.End; {
		if t.err != nil {
			return
		}
		bi := &ins[i]
		bi.fn(t, bi)
		i += 1 + int32(bi.fuse)
	}
}

// handlerFn executes one bound instruction on a thread. Handlers are
// assigned at bind time (one specialized func per op, see handlers), so
// dispatch is a single indirect call instead of a switch over every op.
type handlerFn func(*threadCtx, *bInstr)

// handlers maps each op to its handler; bind() consults it via handlerFor.
// Ops that need per-variant specialization (comparisons, transcendentals,
// mask logic) get one handler per variant so the per-lane loops contain no
// residual dispatch.
var handlers = [vm.NumOps]handlerFn{
	vm.OpNop:       hNop,
	vm.OpAdd:       hAdd,
	vm.OpSub:       hSub,
	vm.OpMul:       hMul,
	vm.OpDiv:       hDiv,
	vm.OpMin:       hMin,
	vm.OpMax:       hMax,
	vm.OpNeg:       hNeg,
	vm.OpAbs:       hAbs,
	vm.OpSqrt:      hSqrt,
	vm.OpRsqrt:     hRsqrt,
	vm.OpRcp:       hRcp,
	vm.OpExp:       hExp,
	vm.OpLog:       hLog,
	vm.OpSin:       hSin,
	vm.OpCos:       hCos,
	vm.OpFloor:     hFloor,
	vm.OpFMA:       hFMA,
	vm.OpCmpLT:     hCmpLT,
	vm.OpCmpLE:     hCmpLE,
	vm.OpCmpGT:     hCmpGT,
	vm.OpCmpGE:     hCmpGE,
	vm.OpCmpEQ:     hCmpEQ,
	vm.OpCmpNE:     hCmpNE,
	vm.OpAndM:      hAndM,
	vm.OpOrM:       hOrM,
	vm.OpNotM:      hNotM,
	vm.OpBlend:     hBlend,
	vm.OpConst:     hConst,
	vm.OpIota:      hIota,
	vm.OpCopy:      hCopy,
	vm.OpBroadcast: hBroadcast,
	vm.OpShuffle:   hShuffle,
	vm.OpMaskMov:   hMaskMov,
	vm.OpHAdd:      hHorizontal,
	vm.OpHMin:      hHorizontal,
	vm.OpHMax:      hHorizontal,
	vm.OpLoad:      hLoad,
	vm.OpStore:     hStore,
	vm.OpGather:    hGather,
	vm.OpScatter:   hScatter,
	vm.OpLoop:      hLoop,
	vm.OpParLoop:   hLoop,
	vm.OpWhile:     hWhile,
	vm.OpIf:        hIf,
	vm.OpIfMask:    hIfMask,
}

// handlerFor resolves an op's handler, defaulting to the unimplemented-op
// diagnostic.
func handlerFor(op vm.Op) handlerFn {
	if int(op) < len(handlers) {
		if fn := handlers[op]; fn != nil {
			return fn
		}
	}
	return hUnimpl
}

func hNop(t *threadCtx, bi *bInstr) {}

func hUnimpl(t *threadCtx, bi *bInstr) {
	t.fail(fmt.Errorf("exec: prog %s: unimplemented op %s", t.e.prog.Name, bi.op))
}

func hAdd(t *threadCtx, bi *bInstr) {
	a, b, d := t.reg(bi.a), t.reg(bi.b), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		d[l] = a[l] + b[l]
	}
	t.finishArith(bi, w)
}

func hSub(t *threadCtx, bi *bInstr) {
	a, b, d := t.reg(bi.a), t.reg(bi.b), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		d[l] = a[l] - b[l]
	}
	t.finishArith(bi, w)
}

func hMin(t *threadCtx, bi *bInstr) {
	a, b, d := t.reg(bi.a), t.reg(bi.b), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		d[l] = math.Min(a[l], b[l])
	}
	t.finishArith(bi, w)
}

func hMax(t *threadCtx, bi *bInstr) {
	a, b, d := t.reg(bi.a), t.reg(bi.b), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		d[l] = math.Max(a[l], b[l])
	}
	t.finishArith(bi, w)
}

func hMul(t *threadCtx, bi *bInstr) {
	a, b, d := t.reg(bi.a), t.reg(bi.b), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		d[l] = a[l] * b[l]
	}
	t.finishArith(bi, w)
}

func hDiv(t *threadCtx, bi *bInstr) {
	a, b, d := t.reg(bi.a), t.reg(bi.b), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		d[l] = a[l] / b[l]
	}
	t.cost.add(bi.ch)
	t.cost.flops += uint64(t.activeFor(w))
}

func hFMA(t *threadCtx, bi *bInstr) {
	a, b, c, d := t.reg(bi.a), t.reg(bi.b), t.reg(bi.c), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		d[l] = a[l]*b[l] + c[l]
	}
	t.cost.add(bi.ch)
	if bi.hasChB {
		t.cost.add(bi.chB)
	}
	t.cost.stall += bi.carriedStall
	t.cost.flops += 2 * uint64(t.activeFor(w))
}

func hNeg(t *threadCtx, bi *bInstr) {
	a, d := t.reg(bi.a), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		d[l] = -a[l]
	}
	t.cost.add(bi.ch)
}

func hAbs(t *threadCtx, bi *bInstr) {
	a, d := t.reg(bi.a), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		d[l] = math.Abs(a[l])
	}
	t.cost.add(bi.ch)
}

func hFloor(t *threadCtx, bi *bInstr) {
	a, d := t.reg(bi.a), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		d[l] = math.Floor(a[l])
	}
	t.cost.add(bi.ch)
}

func hSqrt(t *threadCtx, bi *bInstr) {
	a, d := t.reg(bi.a), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		d[l] = math.Sqrt(a[l])
	}
	t.cost.add(bi.ch)
	t.cost.flops += uint64(t.activeFor(w))
}

func hRsqrt(t *threadCtx, bi *bInstr) {
	a, d := t.reg(bi.a), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		d[l] = 1 / math.Sqrt(a[l])
	}
	t.cost.add(bi.ch)
	t.cost.flops += uint64(t.activeFor(w))
}

func hRcp(t *threadCtx, bi *bInstr) {
	a, d := t.reg(bi.a), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		d[l] = 1 / a[l]
	}
	t.cost.add(bi.ch)
	t.cost.flops += uint64(t.activeFor(w))
}

func hExp(t *threadCtx, bi *bInstr) {
	a, d := t.reg(bi.a), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		d[l] = math.Exp(a[l])
	}
	t.cost.add(bi.ch)
	t.cost.flops += uint64(t.activeFor(w))
}

func hLog(t *threadCtx, bi *bInstr) {
	a, d := t.reg(bi.a), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		d[l] = math.Log(a[l])
	}
	t.cost.add(bi.ch)
	t.cost.flops += uint64(t.activeFor(w))
}

func hSin(t *threadCtx, bi *bInstr) {
	a, d := t.reg(bi.a), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		d[l] = math.Sin(a[l])
	}
	t.cost.add(bi.ch)
	t.cost.flops += uint64(t.activeFor(w))
}

func hCos(t *threadCtx, bi *bInstr) {
	a, d := t.reg(bi.a), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		d[l] = math.Cos(a[l])
	}
	t.cost.add(bi.ch)
	t.cost.flops += uint64(t.activeFor(w))
}

func hCmpLT(t *threadCtx, bi *bInstr) {
	a, b, d := t.reg(bi.a), t.reg(bi.b), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		if a[l] < b[l] {
			d[l] = 1
		} else {
			d[l] = 0
		}
	}
	t.cost.add(bi.ch)
}

func hCmpLE(t *threadCtx, bi *bInstr) {
	a, b, d := t.reg(bi.a), t.reg(bi.b), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		if a[l] <= b[l] {
			d[l] = 1
		} else {
			d[l] = 0
		}
	}
	t.cost.add(bi.ch)
}

func hCmpGT(t *threadCtx, bi *bInstr) {
	a, b, d := t.reg(bi.a), t.reg(bi.b), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		if a[l] > b[l] {
			d[l] = 1
		} else {
			d[l] = 0
		}
	}
	t.cost.add(bi.ch)
}

func hCmpGE(t *threadCtx, bi *bInstr) {
	a, b, d := t.reg(bi.a), t.reg(bi.b), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		if a[l] >= b[l] {
			d[l] = 1
		} else {
			d[l] = 0
		}
	}
	t.cost.add(bi.ch)
}

func hCmpEQ(t *threadCtx, bi *bInstr) {
	a, b, d := t.reg(bi.a), t.reg(bi.b), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		if a[l] == b[l] {
			d[l] = 1
		} else {
			d[l] = 0
		}
	}
	t.cost.add(bi.ch)
}

func hCmpNE(t *threadCtx, bi *bInstr) {
	a, b, d := t.reg(bi.a), t.reg(bi.b), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		if a[l] != b[l] {
			d[l] = 1
		} else {
			d[l] = 0
		}
	}
	t.cost.add(bi.ch)
}

func hAndM(t *threadCtx, bi *bInstr) {
	a, b, d := t.reg(bi.a), t.reg(bi.b), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		if a[l] != 0 && b[l] != 0 {
			d[l] = 1
		} else {
			d[l] = 0
		}
	}
	t.cost.add(bi.ch)
}

func hOrM(t *threadCtx, bi *bInstr) {
	a, b, d := t.reg(bi.a), t.reg(bi.b), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		if a[l] != 0 || b[l] != 0 {
			d[l] = 1
		} else {
			d[l] = 0
		}
	}
	t.cost.add(bi.ch)
}

func hNotM(t *threadCtx, bi *bInstr) {
	a, d := t.reg(bi.a), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		if a[l] == 0 {
			d[l] = 1
		} else {
			d[l] = 0
		}
	}
	t.cost.add(bi.ch)
}

func hBlend(t *threadCtx, bi *bInstr) {
	a, b, c, d := t.reg(bi.a), t.reg(bi.b), t.reg(bi.c), t.reg(bi.dst)
	w := bi.w
	for l := 0; l < w; l++ {
		if c[l] != 0 {
			d[l] = a[l]
		} else {
			d[l] = b[l]
		}
	}
	t.cost.add(bi.ch)
}

func hConst(t *threadCtx, bi *bInstr) {
	d := t.reg(bi.dst)
	for l := 0; l < vm.MaxLanes; l++ {
		d[l] = bi.imm
	}
	t.cost.add(bi.ch)
}

func hIota(t *threadCtx, bi *bInstr) {
	d := t.reg(bi.dst)
	for l := 0; l < vm.MaxLanes; l++ {
		d[l] = bi.imm + float64(l)
	}
	t.cost.add(bi.ch)
}

func hCopy(t *threadCtx, bi *bInstr) {
	*t.reg(bi.dst) = *t.reg(bi.a)
	t.cost.add(bi.ch)
}

func hBroadcast(t *threadCtx, bi *bInstr) {
	a, d := t.reg(bi.a), t.reg(bi.dst)
	v := a[0]
	for l := 0; l < vm.MaxLanes; l++ {
		d[l] = v
	}
	t.cost.add(bi.ch)
}

func hShuffle(t *threadCtx, bi *bInstr) {
	a, d := t.reg(bi.a), t.reg(bi.dst)
	var tmp [vm.MaxLanes]float64
	for l := 0; l < bi.w; l++ {
		tmp[l] = a[bi.pattern[l]]
	}
	*d = tmp
	t.cost.add(bi.ch)
}

func hMaskMov(t *threadCtx, bi *bInstr) {
	d := t.reg(bi.dst)
	for l := 0; l < vm.MaxLanes; l++ {
		if t.mask&(1<<uint(l)) != 0 {
			d[l] = 1
		} else {
			d[l] = 0
		}
	}
	t.cost.add(bi.ch)
}

func hHorizontal(t *threadCtx, bi *bInstr) { t.horizontal(bi, bi.w) }

func hLoad(t *threadCtx, bi *bInstr) { t.load(bi, bi.w) }

func hStore(t *threadCtx, bi *bInstr) { t.store(bi, bi.w) }

func hGather(t *threadCtx, bi *bInstr) { t.gather(bi, bi.w) }

func hScatter(t *threadCtx, bi *bInstr) { t.scatter(bi, bi.w) }

// hLoop covers OpLoop and, inside a thread (or a single-thread engine),
// OpParLoop: a parallel loop degenerates to a sequential loop over the
// thread's range; the engine handles top-level partitioning before we get
// here.
func hLoop(t *threadCtx, bi *bInstr) { t.loop(bi) }

func hWhile(t *threadCtx, bi *bInstr) { t.while(bi) }

func hIf(t *threadCtx, bi *bInstr) { t.branch(bi) }

func hIfMask(t *threadCtx, bi *bInstr) { t.ifMask(bi) }

// finishArith accounts a binary arithmetic op: its pre-bound charge, useful
// flops when it is FP work, and the loop-carried stall (pre-computed; zero
// when not carried).
func (t *threadCtx) finishArith(bi *bInstr, w int) {
	t.cost.add(bi.ch)
	t.cost.flops += uint64(bi.flopsMul * t.activeFor(w))
	t.cost.stall += bi.carriedStall
}

// activeFor returns the number of active lanes clipped to an op width.
func (t *threadCtx) activeFor(w int) int {
	if w == 1 {
		return 1
	}
	n := t.act
	if n > w {
		n = w
	}
	return n
}

func (t *threadCtx) horizontal(bi *bInstr, w int) {
	a, d := t.reg(bi.a), t.reg(bi.dst)
	var acc float64
	first := true
	for l := 0; l < w; l++ {
		if t.mask&(1<<uint(l)) == 0 && w > 1 {
			continue
		}
		v := a[l]
		if first {
			acc = v
			first = false
			continue
		}
		switch bi.op {
		case vm.OpHAdd:
			acc += v
		case vm.OpHMin:
			acc = math.Min(acc, v)
		case vm.OpHMax:
			acc = math.Max(acc, v)
		}
	}
	for l := 0; l < vm.MaxLanes; l++ {
		d[l] = acc
	}
	for s := 0; s < bi.stages; s++ {
		t.cost.add(bi.ch)
		t.cost.add(bi.chB)
	}
}
