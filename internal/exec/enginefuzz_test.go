package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ninjagap/internal/machine"
	"ninjagap/internal/vm"
)

// Differential property test for the engine: randomly generated
// vector-loop nests are executed three times — fused, with fusion disabled
// (NoFuse), and fused again — and the runs must agree exactly: the full
// exec.Result field for field and every array element bit for bit (NaNs
// included, hence the Float64bits comparison). The generator mixes tame
// shapes (affine unit-stride loads and stores) with wild ones (multi-stride
// accesses, induction gathers/scatters, non-affine floor'd indices,
// aliasing load/store pairs on one array, short trips, multi-loop
// programs), and a quarter of its loops are parallel loops whose
// iterations may alias across threads. Those are the cases where fused
// dispatch or the parallel-loop worker order could make a run depend on
// anything but the program and its inputs.

// fuzzCase is one generated program plus the array shapes it needs.
type fuzzCase struct {
	prog    *vm.Prog
	sizes   map[string]int
	elemB   map[string]int
	threads int
}

// genFuzzCase builds a random program from the given source. All accesses
// are kept in bounds by construction (sizes grow with the worst-case index
// of every emitted access), so no run can fail; divergence, not
// error handling, is what this test is about.
//
// tame restricts generation to unit-stride accesses at offset-only bases,
// with no gathers or scatters. Wild cases keep the full op mix:
// multi-stride loads, induction gathers/scatters, non-affine floor'd
// indices, aliasing stores.
func genFuzzCase(r *rand.Rand, tame bool) fuzzCase {
	b := vm.NewBuilder("enginefuzz")
	names := []string{"a0", "a1", "a2"}[:1+r.Intn(3)]
	elemB := map[string]int{}
	arrID := map[string]int{}
	sizes := map[string]int{}
	for _, nm := range names {
		eb := 4
		if r.Intn(3) == 0 {
			eb = 8
		}
		elemB[nm] = eb
		arrID[nm] = b.Array(nm, eb)
		sizes[nm] = 64
	}
	need := func(nm string, n int) {
		if n+vm.MaxLanes+8 > sizes[nm] {
			sizes[nm] = n + vm.MaxLanes + 8
		}
	}
	anyArr := func() string { return names[r.Intn(len(names))] }

	threads := 1
	nLoops := 1 + r.Intn(2)
	for loop := 0; loop < nLoops; loop++ {
		lo := int64(r.Intn(5))
		trip := int64(1 + r.Intn(300))
		var i int
		if r.Intn(4) == 0 {
			i = b.ParVecLoop(lo, trip)
			threads = 2
		} else {
			i = b.VecLoop(lo, trip)
		}
		if u := r.Intn(3); u > 0 {
			b.SetUnroll(1 << u)
		}
		hiIter := int(lo + trip - 1)

		// base = i*mult + off, affine by construction; returns the base
		// register and the largest element index lane 0 can address.
		mkBase := func() (int, int) {
			mult := 1
			if !tame {
				mult += r.Intn(3)
			}
			off := r.Intn(8)
			base := i
			if mult > 1 {
				base = b.ScalarAddr2(vm.OpMul, i, b.Const(float64(mult)))
			}
			if off > 0 {
				base = b.ScalarAddr2(vm.OpAdd, base, b.Const(float64(off)))
			}
			return base, mult*hiIter + off
		}

		var vals []int
		pick := func() int { return vals[r.Intn(len(vals))] }
		load := func() {
			nm := anyArr()
			base, hi := mkBase()
			stride := 1
			if !tame {
				stride += r.Intn(3)
			}
			need(nm, hi+stride*vm.MaxLanes)
			vals = append(vals, b.Load(arrID[nm], base, stride))
		}
		load()
		for k, nOps := 0, 2+r.Intn(8); k < nOps; k++ {
			kind := r.Intn(10)
			if tame && (kind == 6 || kind == 7 || kind == 9) {
				kind = r.Intn(6) // arith, unary, FMA or another load
			}
			switch kind {
			case 0, 1, 2:
				ops := []vm.Op{vm.OpAdd, vm.OpSub, vm.OpMul, vm.OpMin, vm.OpMax}
				vals = append(vals, b.Op2(ops[r.Intn(len(ops))], pick(), pick()))
			case 3:
				ops := []vm.Op{vm.OpNeg, vm.OpAbs, vm.OpSqrt}
				vals = append(vals, b.Op1(ops[r.Intn(len(ops))], pick()))
			case 4:
				vals = append(vals, b.FMA(pick(), pick(), pick()))
			case 5:
				load()
			case 6: // induction gather: affine
				nm := anyArr()
				need(nm, hiIter)
				vals = append(vals, b.Gather(arrID[nm], i))
			case 7: // floor(i/2) gather: structurally non-affine
				nm := anyArr()
				need(nm, hiIter/2+1)
				idx := b.Op1(vm.OpFloor, b.Op2(vm.OpMul, i, b.Const(0.5)))
				vals = append(vals, b.Gather(arrID[nm], idx))
			case 8:
				nm := anyArr()
				base, hi := mkBase()
				stride := 1
				if !tame {
					stride += r.Intn(2)
				}
				need(nm, hi+stride*vm.MaxLanes)
				b.Store(arrID[nm], pick(), base, stride)
			case 9: // induction scatter
				nm := anyArr()
				need(nm, hiIter)
				b.Scatter(arrID[nm], pick(), i)
			}
		}
		// Always store something so the loop's work is observable; the
		// target is drawn from the same pool the loads use, so stores
		// regularly land on an array the loop also reads — across threads,
		// too, when the loop is parallel.
		nm := anyArr()
		base, hi := mkBase()
		need(nm, hi+vm.MaxLanes)
		b.Store(arrID[nm], pick(), base, 1)
		b.End()
	}
	return fuzzCase{prog: b.MustBuild(), sizes: sizes, elemB: elemB, threads: threads}
}

// TestMacroblockDifferentialFuzz keeps the name it had when it compared
// macro-block replay against interpretation, so per-seed results stay
// comparable across revisions; it now checks the one engine path.
func TestMacroblockDifferentialFuzz(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 25
	}
	m := machine.WestmereX980()
	fusedBefore := FusedInstrs()
	for seed := 0; seed < trials; seed++ {
		seed := seed
		tame := seed%2 == 0
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(seed)))
			fc := genFuzzCase(r, tame)

			// One shared fill so every run starts from identical bits.
			fill := map[string][]float64{}
			fr := rand.New(rand.NewSource(int64(seed)*1001 + 7))
			for nm, n := range fc.sizes {
				d := make([]float64, n)
				for j := range d {
					d[j] = 4*fr.Float64() - 2
				}
				fill[nm] = d
			}
			run := func(noFuse bool) (*Result, map[string][]float64) {
				arrays := map[string]*vm.Array{}
				for nm, n := range fc.sizes {
					a := vm.NewArray(nm, fc.elemB[nm], n)
					copy(a.Data, fill[nm])
					arrays[nm] = a
				}
				res, err := Run(fc.prog, arrays, m, Options{Threads: fc.threads, NoFuse: noFuse})
				if err != nil {
					t.Fatalf("noFuse=%t: %v", noFuse, err)
				}
				out := map[string][]float64{}
				for nm, a := range arrays {
					out[nm] = a.Data
				}
				return res, out
			}

			refRes, refArr := run(false)
			for _, alt := range []struct {
				name   string
				noFuse bool
			}{{"nofuse", true}, {"fused again", false}} {
				res, arr := run(alt.noFuse)
				if !reflect.DeepEqual(refRes, res) {
					t.Errorf("%s: result diverged\nfused: %+v\n%s: %+v", alt.name, refRes, alt.name, res)
				}
				for nm := range refArr {
					a, b := refArr[nm], arr[nm]
					for j := range a {
						if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
							t.Fatalf("%s: array %s[%d] diverged: fused=%v (%#x) %s=%v (%#x)",
								alt.name, nm, j, a[j], math.Float64bits(a[j]), alt.name, b[j], math.Float64bits(b[j]))
						}
					}
				}
			}
		})
	}
	// The fused/NoFuse identity above is vacuous if no generated case ever
	// dispatched a fused superinstruction.
	if n := FusedInstrs() - fusedBefore; n == 0 {
		t.Errorf("no generated case executed a fused superinstruction — the generator no longer produces fusable pairs")
	} else {
		t.Logf("%d dynamic instructions ran fused across %d trials", n, trials)
	}
}
