package exec

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"ninjagap/internal/kernels"
	"ninjagap/internal/machine"
)

// TestFusionBitIdentical is the admissibility proof for superinstruction
// fusion: for every built-in kernel and every ladder version, a run with
// fusion disabled must produce exactly the same Result — every float64 of
// the cycle decomposition, port occupancy and cache statistics — and
// exactly the same output arrays as the default fused run. The test also
// checks the process-wide fused-instruction counter advanced, so it
// cannot pass vacuously with fusion never engaging.
func TestFusionBitIdentical(t *testing.T) {
	m := machine.WestmereX980()
	before := FusedInstrs()
	for _, b := range kernels.All() {
		n := legalN(b, int(float64(b.TestN())))
		for _, v := range kernels.Versions() {
			fused, err := b.Prepare(v, m, n)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := b.Prepare(v, m, n)
			if err != nil {
				t.Fatal(err)
			}
			rf, err := Run(fused.Prog, fused.Arrays, m, Options{Threads: 1})
			if err != nil {
				t.Fatalf("%s/%s fused: %v", b.Name(), v, err)
			}
			rp, err := Run(plain.Prog, plain.Arrays, m, Options{Threads: 1, NoFuse: true})
			if err != nil {
				t.Fatalf("%s/%s nofuse: %v", b.Name(), v, err)
			}
			if !reflect.DeepEqual(rf, rp) {
				t.Errorf("%s/%s n=%d: Result diverged between fused and NoFuse dispatch\nfused:  %+v\nnofuse: %+v",
					b.Name(), v, n, rf, rp)
			}
			for name, af := range fused.Arrays {
				ap := plain.Arrays[name]
				if ap == nil {
					t.Fatalf("%s/%s: array %q missing from NoFuse instance", b.Name(), v, name)
				}
				if !reflect.DeepEqual(af.Data, ap.Data) {
					t.Errorf("%s/%s n=%d: array %q diverged between fused and NoFuse dispatch",
						b.Name(), v, n, name)
				}
			}
		}
	}
	if FusedInstrs() == before {
		t.Error("no fused superinstructions executed across the whole kernel suite; the bit-identity check is vacuous")
	}
}

// legalN clamps a benchmark size to its minimum and the per-kernel size
// granularity (mirrors the gap package's size legalization, which exec
// tests cannot import without a cycle).
func legalN(b kernels.Benchmark, n int) int {
	if min := b.TestN(); n < min {
		n = min
	}
	switch b.Name() {
	case "complexconv", "blackscholes":
		return (n / 64) * 64
	}
	return n
}

// dispatchRun returns the wall-clock seconds of one single-threaded run
// with or without fusion, on a freshly prepared instance so mutated inputs
// cannot skew later runs.
func dispatchRun(t *testing.T, b kernels.Benchmark, m *machine.Machine, n int, noFuse bool) float64 {
	t.Helper()
	inst, err := b.Prepare(kernels.Ninja, m, n)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := Run(inst.Prog, inst.Arrays, m, Options{Threads: 1, NoFuse: noFuse}); err != nil {
		t.Fatal(err)
	}
	return time.Since(start).Seconds()
}

// TestDispatchSpeedRegression: on the interpreter-bound kernels
// (treesearch's pointer chasing, mergesort's data-dependent merges), fused
// dispatch must not be slower than unfused dispatch. Fused and unfused
// runs are interleaved in pairs, alternating which goes first, and the
// gate is the median of the per-pair fused/unfused ratios: both halves of
// a pair see the same host load, so a noisy stretch moves the pair, not
// the ratio. The 1.2x threshold is deliberately loose — fusion is worth
// ~10-25% on these kernels, so only a real regression (fusion overhead
// without its benefit) crosses it.
func TestDispatchSpeedRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("timing harness")
	}
	if raceEnabled {
		t.Skip("timing comparison is meaningless under the race detector")
	}
	const pairs = 15
	m := machine.WestmereX980()
	for _, name := range []string{"treesearch", "mergesort"} {
		var b kernels.Benchmark
		for _, k := range kernels.All() {
			if k.Name() == name {
				b = k
				break
			}
		}
		if b == nil {
			t.Fatalf("kernel %q not registered", name)
		}
		n := legalN(b, int(float64(b.DefaultN())*0.25))
		for i := 0; i < 3; i++ { // warm pools
			dispatchRun(t, b, m, n, false)
			dispatchRun(t, b, m, n, true)
		}
		ratios := make([]float64, 0, pairs)
		for i := 0; i < pairs; i++ {
			var fused, nofuse float64
			if i%2 == 0 {
				fused = dispatchRun(t, b, m, n, false)
				nofuse = dispatchRun(t, b, m, n, true)
			} else {
				nofuse = dispatchRun(t, b, m, n, true)
				fused = dispatchRun(t, b, m, n, false)
			}
			ratios = append(ratios, fused/nofuse)
		}
		sort.Float64s(ratios)
		med := ratios[len(ratios)/2]
		t.Logf("%-12s median fused/nofuse=%5.3f (min %5.3f, max %5.3f)", name, med, ratios[0], ratios[len(ratios)-1])
		if med > 1.2 {
			t.Errorf("%s: fused dispatch is %.2fx the time of unfused dispatch (median of %d pairs, limit 1.2x)",
				name, med, pairs)
		}
	}
}
