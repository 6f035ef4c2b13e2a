package exec

// Program pre-binding: after the arrays are bound and the machine is known,
// the flattened program (vm.FlatProg) is linked into a boundProg whose
// instructions carry everything the interpreter would otherwise re-derive
// per dynamic instruction — effective SIMD width, register-file offsets,
// resolved array pointers and element sizes, issue-port charge rows
// (port + occupancy + class), loop-carried stall contributions, stride
// classes, expanded shuffle patterns and branch-miss penalties. The
// interpreter then walks a contiguous []bInstr doing array arithmetic only.
//
// Binding is cost-model-exact: every precomputed value is produced by the
// same floating-point expressions, in the same order, as the previous
// per-iteration code paths, so simulated results are bit-identical.

import (
	"math/bits"

	"ninjagap/internal/machine"
	"ninjagap/internal/vm"
)

// chargeRow is one pre-resolved issue charge: adding it to a costAcc is the
// bound equivalent of threadCtx.charge(class, lanes).
type chargeRow struct {
	port  machine.Port
	occ   float64
	class machine.OpClass
}

// Memory-instruction stride classes (vector form).
const (
	memUnit   = iota // |stride| <= 1: one vector load/store
	memSmall         // |stride| <= 4: stride x (access + shuffle)
	memGather        // large stride: degenerates to gather/scatter cost
)

// bInstr is one bound instruction. Field use depends on op; see bind().
type bInstr struct {
	op vm.Op
	w  int // effective SIMD width (1 for Scalar instructions)

	// fn is the pre-bound handler dispatch target. For a fused
	// superinstruction it is hFused, fnA holds the instruction's own
	// handler, next points at the absorbed successor, and fuse is how many
	// extra instructions the dispatch covers (see fuse.go).
	fn   handlerFn
	fnA  handlerFn
	next *bInstr
	fuse uint8

	// Register-file offsets (register index * vm.MaxLanes).
	dst, a, b, c int

	imm float64

	carried bool

	// Pre-resolved charges. ch is the primary issue charge; chB and chC
	// are op-specific extras (FMA fallback add, strided-access shuffles,
	// masked-store blends, horizontal-reduction adds).
	ch, chB, chC chargeRow
	hasChB       bool // arithmetic op issues chB unconditionally (FMA w/o HW)

	flopsMul     int     // useful flops per active lane (0, 1 or 2)
	carriedStall float64 // chargeCarried contribution when carried (pre-divided)

	// Memory operands.
	arr        *vm.Array
	eb         uint64 // element bytes of the bound array
	stride     int64
	astride    int64
	memKind    uint8
	alignCheck bool    // unit-stride load may pay a realign shuffle (runtime base check)
	revPermute bool    // stride -1 load pays a reverse permute
	mlp        float64 // miss-level parallelism for this instr's demand touches

	pattern [vm.MaxLanes]int // OpShuffle pattern expanded to MaxLanes

	stages int // horizontal-reduction shuffle+add stage count

	// Control flow.
	lo, count  int64
	countReg   int // register-file offset of the dynamic trip count, -1 if unused
	vec        bool
	unroll     int
	missStall  float64 // MissProb * BranchMissPenalty
	chunk      int
	reduceRegs []int // register-file offsets
	reduceOp   vm.Op
	body, els  vm.Span
}

// boundProg is the linked program: a contiguous arena of bound instructions
// plus the top-level span.
type boundProg struct {
	instrs []bInstr
	top    vm.Span
}

// row builds a charge row for one op class at a fixed lane count; occupancy
// is computed exactly as threadCtx.charge did.
func (e *engine) row(cl machine.OpClass, lanes int) chargeRow {
	c := e.m.Cost(cl)
	return chargeRow{port: c.Port, occ: c.Occupancy(lanes), class: cl}
}

// carriedStallFor precomputes chargeCarried's stall contribution with the
// same expression order as the per-iteration version.
func (e *engine) carriedStallFor(cl machine.OpClass, lanes, unroll int) float64 {
	const oooOverlap = 0.6
	c := e.m.Cost(cl)
	extra := c.Latency - c.Occupancy(lanes)
	if extra <= 0 {
		return 0
	}
	if unroll > 1 {
		extra /= float64(unroll)
	}
	return extra * oooOverlap
}

// bind links a flattened program against the engine's machine and bound
// arrays.
func (e *engine) bind(fp *vm.FlatProg) *boundProg {
	bp := &boundProg{instrs: make([]bInstr, len(fp.Instrs)), top: fp.Top}
	for i := range fp.Instrs {
		bi := &bp.instrs[i]
		e.bindInstr(bi, &fp.Instrs[i])
		bi.fn = handlerFor(bi.op)
	}
	if !e.opt.NoFuse {
		e.fuse(bp, fp)
	}
	return bp
}

func (e *engine) bindInstr(bi *bInstr, fi *vm.FlatInstr) {
	in := &fi.Instr
	w := e.W
	if in.Scalar {
		w = 1
	}
	bi.op = in.Op
	bi.w = w
	bi.dst = in.Dst * vm.MaxLanes
	bi.a = in.A * vm.MaxLanes
	bi.b = in.B * vm.MaxLanes
	bi.c = in.C * vm.MaxLanes
	bi.imm = in.Imm
	bi.carried = in.Carried
	bi.body = fi.BodySpan
	bi.els = fi.ElseSpan

	unroll := in.Unroll
	if unroll < 1 {
		unroll = 1
	}
	bi.unroll = unroll

	switch in.Op {
	case vm.OpAdd, vm.OpSub, vm.OpMin, vm.OpMax:
		e.bindArith(bi, in, machine.OpFPAdd, w, 1)

	case vm.OpMul:
		e.bindArith(bi, in, machine.OpFPMul, w, 1)

	case vm.OpDiv:
		bi.ch = e.row(machine.OpFPDiv, w)
		bi.flopsMul = 1

	case vm.OpFMA:
		bi.flopsMul = 2
		if e.m.Feat.FMA {
			bi.ch = e.row(machine.OpFPFMA, w)
			if in.Carried {
				bi.carriedStall = e.carriedStallFor(machine.OpFPFMA, w, in.Unroll)
			}
		} else {
			// No FMA hardware: a multiply plus a dependent add.
			bi.ch = e.row(machine.OpFPMul, w)
			bi.chB = e.row(machine.OpFPAdd, w)
			bi.hasChB = true
			if in.Carried {
				bi.carriedStall = e.carriedStallFor(machine.OpFPAdd, w, in.Unroll)
			}
		}

	case vm.OpNeg, vm.OpAbs, vm.OpFloor:
		bi.ch = e.row(machine.OpFPAdd, w)

	case vm.OpSqrt:
		bi.ch = e.row(machine.OpFPSqrt, w)
		bi.flopsMul = 1
	case vm.OpRsqrt:
		bi.ch = e.row(machine.OpFPRsqrt, w)
		bi.flopsMul = 1
	case vm.OpRcp:
		bi.ch = e.row(machine.OpFPRcp, w)
		bi.flopsMul = 1

	case vm.OpExp, vm.OpLog, vm.OpSin, vm.OpCos:
		if in.Scalar {
			bi.ch = e.row(machine.OpMathLibm, 1)
		} else {
			bi.ch = e.row(machine.OpMathPoly, w)
		}
		bi.flopsMul = 1

	case vm.OpCmpLT, vm.OpCmpLE, vm.OpCmpGT, vm.OpCmpGE, vm.OpCmpEQ, vm.OpCmpNE:
		bi.ch = e.row(machine.OpFPAdd, w) // cmpps issues on the FP add stack

	case vm.OpAndM, vm.OpOrM, vm.OpNotM:
		bi.ch = e.row(machine.OpShuffle, w)

	case vm.OpBlend:
		bi.ch = e.row(machine.OpBlend, w)

	case vm.OpConst, vm.OpIota, vm.OpCopy, vm.OpBroadcast, vm.OpMaskMov:
		bi.ch = e.row(machine.OpShuffle, w)

	case vm.OpShuffle:
		bi.ch = e.row(machine.OpShuffle, w)
		for l := 0; l < vm.MaxLanes; l++ {
			bi.pattern[l] = in.Pattern[l%len(in.Pattern)]
		}

	case vm.OpHAdd, vm.OpHMin, vm.OpHMax:
		// log2(W) shuffle+add stages.
		stages := bits.Len(uint(w)) - 1
		if stages < 1 {
			stages = 1
		}
		bi.stages = stages
		bi.ch = e.row(machine.OpShuffle, w)
		bi.chB = e.row(machine.OpFPAdd, w)

	case vm.OpLoad:
		e.bindMem(bi, in, w)
		bi.ch = e.row(machine.OpLoad, w)
		bi.chB = e.row(machine.OpShuffle, w)
		if in.Carried {
			bi.carriedStall = e.carriedStallFor(machine.OpLoad, w, in.Unroll)
		}
		bi.alignCheck = bi.astride == 1 && !e.m.Feat.FastUnaligned && w > 1
		bi.revPermute = bi.stride == -1

	case vm.OpStore:
		e.bindMem(bi, in, w)
		bi.ch = e.row(machine.OpStore, w)
		bi.chB = e.row(machine.OpShuffle, w)
		bi.chC = e.row(machine.OpBlend, w)

	case vm.OpGather:
		e.bindMem(bi, in, w)
		if in.Carried {
			bi.carriedStall = e.carriedStallFor(machine.OpGatherElem, 1, in.Unroll)
		}

	case vm.OpScatter:
		e.bindMem(bi, in, w)

	case vm.OpLoop, vm.OpParLoop:
		bi.ch = e.row(machine.OpIntALU, 1)  // induction update
		bi.chB = e.row(machine.OpBranch, 1) // back-edge (predicted)
		bi.lo = in.Lo
		bi.count = in.Count
		bi.countReg = -1
		if in.CountReg >= 0 {
			bi.countReg = in.CountReg * vm.MaxLanes
		}
		bi.vec = in.Vec
		bi.chunk = in.Chunk
		bi.reduceOp = in.ReduceOp
		for _, r := range in.ReduceRegs {
			bi.reduceRegs = append(bi.reduceRegs, r*vm.MaxLanes)
		}

	case vm.OpWhile, vm.OpIf, vm.OpIfMask:
		bi.ch = e.row(machine.OpBranch, 1)
		bi.missStall = in.MissProb * e.m.BranchMissPenalty
	}
}

// bindArith fills the common binary-arithmetic charges: integer ALU when
// the op is address arithmetic, the FP class otherwise.
func (e *engine) bindArith(bi *bInstr, in *vm.Instr, cl machine.OpClass, w, flops int) {
	if in.Addr {
		bi.ch = e.row(machine.OpIntALU, w)
		return
	}
	bi.ch = e.row(cl, w)
	bi.flopsMul = flops
	if in.Carried {
		bi.carriedStall = e.carriedStallFor(cl, w, in.Unroll)
	}
}

// bindMem resolves a memory instruction's array, element size, stride class
// and miss-level parallelism.
func (e *engine) bindMem(bi *bInstr, in *vm.Instr, w int) {
	bi.arr = e.arrays[in.Arr]
	bi.eb = uint64(bi.arr.ElemBytes)
	bi.stride = int64(in.Stride)
	bi.astride = bi.stride
	if bi.astride < 0 {
		bi.astride = -bi.astride
	}
	switch {
	case bi.astride <= 1:
		bi.memKind = memUnit
	case bi.astride <= 4:
		bi.memKind = memSmall
	default:
		bi.memKind = memGather
	}
	bi.mlp = float64(e.m.Mem.MLP)
	if in.Carried && (in.Op == vm.OpLoad) {
		// Carried loads lose miss-level parallelism (pointer chasing).
		bi.mlp = 1
	}
}
