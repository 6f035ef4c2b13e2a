package gap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ninjagap/internal/kernels"
	"ninjagap/internal/machine"
	"ninjagap/internal/vm"
)

// TestMemoKeysCostMutatedClone is the machineSig under-fingerprinting
// regression test: a SetCost-mutated clone keeps its preset's name, core
// count, frequency and feature set, so a key built from those alone
// collides with the base preset and serves its stale measurement. The
// fixed key hashes the full model (cost table included) and must measure
// the two machines separately. This fails on the pre-fix machineSig.
func TestMemoKeysCostMutatedClone(t *testing.T) {
	base, err := kernels.ByName("backprojection")
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBench{Benchmark: base}
	m := machine.WestmereX980()
	slow := m.Clone()
	c := slow.Cost(machine.OpGatherElem)
	c.RecipTput *= 4
	slow.SetCost(machine.OpGatherElem, c)
	if slow.Name != m.Name || slow.Cores != m.Cores || slow.Feat != m.Feat {
		t.Fatal("precondition: SetCost clone must keep name/cores/features")
	}

	n := LegalN(base, base.TestN())
	cells := []Cell{
		{Bench: cb, Version: kernels.Pragma, Machine: m, N: n},
		{Bench: cb, Version: kernels.Pragma, Machine: slow, N: n},
	}
	memo := NewMemo()
	ms, err := NewScheduler(1, memo, false).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := cb.prepares.Load(); got != 2 {
		t.Errorf("Prepare called %d times for base + cost-mutated clone, want 2 (memo key collision)", got)
	}
	if memo.Len() != 2 {
		t.Errorf("memo holds %d entries, want 2", memo.Len())
	}
	// backprojection's pragma version gathers; a 4x gather cost must show.
	if ms[0].Seconds() == ms[1].Seconds() {
		t.Error("cost-mutated clone produced identical time — stale measurement served?")
	}
}

// TestMemoKeysFieldMutatedClones extends the collision regression to the
// other mutation channels the ablations use: cache geometry, SIMD width,
// issue width and memory parameters.
func TestMemoKeysFieldMutatedClones(t *testing.T) {
	base, err := kernels.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBench{Benchmark: base}
	m := machine.WestmereX980()
	muts := []func(*machine.Machine){
		func(c *machine.Machine) { c.Caches[0].SizeBytes = 64 << 10 },
		func(c *machine.Machine) { c.VecWidthF32, c.VecWidthF64 = 8, 4 },
		func(c *machine.Machine) { c.IssueWidth = 2 },
		func(c *machine.Machine) { c.Mem.BandwidthGBps = 12 },
	}
	n := LegalN(base, base.TestN())
	cells := []Cell{{Bench: cb, Version: kernels.Pragma, Machine: m, N: n}}
	for _, mut := range muts {
		clone := m.Clone()
		mut(clone)
		cells = append(cells, Cell{Bench: cb, Version: kernels.Pragma, Machine: clone, N: n})
	}
	memo := NewMemo()
	if _, err := NewScheduler(2, memo, false).Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if got := cb.prepares.Load(); got != int64(len(cells)) {
		t.Errorf("Prepare called %d times for %d distinct machine models, want %d",
			got, len(cells), len(cells))
	}
}

// cancellingBench cancels the batch's external context from inside the
// cell and surfaces a *wrapped* cancellation error — the shape the
// scheduler must classify as a cancellation, not a real failure.
type cancellingBench struct {
	kernels.Benchmark
	cancel context.CancelFunc
}

func (b *cancellingBench) Prepare(kernels.Version, *machine.Machine, int) (*kernels.Instance, error) {
	b.cancel()
	return nil, fmt.Errorf("measurement interrupted: %w", context.Canceled)
}

// TestSchedulerClassifiesWrappedCancellation pins the errors.Is
// classification fix: a cell surfacing a wrapped context.Canceled while
// the batch context is cancelled must be reported as a cancellation
// ("cell N cancelled: ..."), not returned verbatim as a cell failure.
func TestSchedulerClassifiesWrappedCancellation(t *testing.T) {
	good, err := kernels.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bad := &cancellingBench{Benchmark: good, cancel: cancel}
	m := machine.WestmereX980()
	n := LegalN(good, good.TestN())

	cells := []Cell{{Bench: bad, Version: kernels.Naive, Machine: m, N: n}}
	_, err = NewScheduler(1, NewMemo(), false).Run(ctx, cells)
	if err == nil {
		t.Fatal("cancelled batch returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not satisfy errors.Is(context.Canceled)", err)
	}
	if !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("wrapped cancellation misreported as a real failure: %v", err)
	}
}

// TestSchedulerDeadlinePropagatesCause checks the unfed-cell path: when
// the parent deadline fires, the batch error carries the deadline cause
// (via context.Cause) so callers can classify it — the daemon maps it to
// HTTP 504.
func TestSchedulerDeadlinePropagatesCause(t *testing.T) {
	m := machine.WestmereX980()
	cells := testCells(t, m)
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done()
	_, err := NewScheduler(2, NewMemo(), false).Run(ctx, cells)
	if err == nil {
		t.Fatal("expired deadline did not fail the run")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not satisfy errors.Is(context.DeadlineExceeded)", err)
	}
}

// TestMemoDoesNotCacheCancellation pins the cache-poisoning fix: a cell
// computation abandoned by one request's cancellation must not leave a
// cached error behind for every later request.
func TestMemoDoesNotCacheCancellation(t *testing.T) {
	memo := NewMemo()
	key := cellKey{Bench: "x", Version: "naive", Machine: "m", N: 1}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := memo.do(cancelled, key, func() (*Measurement, error) {
		return nil, fmt.Errorf("cell abandoned: %w", context.Canceled)
	})
	if err == nil {
		t.Fatal("cancelled computation returned no error")
	}
	if memo.Len() != 0 {
		t.Fatalf("cancelled computation left %d cached entries, want 0", memo.Len())
	}

	want := &Measurement{}
	got, err := memo.do(context.Background(), key, func() (*Measurement, error) {
		return want, nil
	})
	if err != nil {
		t.Fatalf("recomputation after cancellation failed: %v", err)
	}
	if got != want {
		t.Error("recomputation did not run fresh")
	}
}

// TestMemoRetriesAfterCancelledWinner checks the waiter path: a caller
// whose own context is live retries the computation instead of
// inheriting another request's cancellation.
func TestMemoRetriesAfterCancelledWinner(t *testing.T) {
	memo := NewMemo()
	key := cellKey{Bench: "y", Version: "naive", Machine: "m", N: 1}
	want := &Measurement{}
	calls := 0
	got, err := memo.do(context.Background(), key, func() (*Measurement, error) {
		calls++
		if calls == 1 {
			return nil, context.Canceled
		}
		return want, nil
	})
	if err != nil {
		t.Fatalf("live-context caller inherited a cancellation: %v", err)
	}
	if got != want || calls != 2 {
		t.Errorf("got %p after %d calls, want retry (2 calls) returning the fresh measurement", got, calls)
	}

	// Real errors stay cached.
	boom := errors.New("boom")
	ekey := cellKey{Bench: "z", Version: "naive", Machine: "m", N: 1}
	ecalls := 0
	f := func() (*Measurement, error) { ecalls++; return nil, boom }
	if _, err := memo.do(context.Background(), ekey, f); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := memo.do(context.Background(), ekey, f); !errors.Is(err, boom) {
		t.Fatalf("second err = %v, want cached boom", err)
	}
	if ecalls != 1 {
		t.Errorf("real error computed %d times, want 1 (cached)", ecalls)
	}
}

// finalizedBench wraps a suite benchmark and sets a finalizer on the
// output array of the instance it prepares, so a test can observe when
// the cell's arrays become unreachable.
type finalizedBench struct {
	kernels.Benchmark
	freed chan struct{}
}

func (f *finalizedBench) Name() string { return "finalized" }

func (f *finalizedBench) Prepare(v kernels.Version, m *machine.Machine, n int) (*kernels.Instance, error) {
	inst, err := f.Benchmark.Prepare(v, m, n)
	if err != nil {
		return nil, err
	}
	runtime.SetFinalizer(inst.Arrays["out"], func(*vm.Array) { close(f.freed) })
	return inst, nil
}

// TestMemoEntryDropsInstance pins what a memo entry retains: after the
// reference check, the cell's program, arrays and check closure (which
// captures the golden output) must be garbage, and the entry must hold
// exactly what its disk encoding holds, so a long-lived memo does not
// keep every measured cell's arrays alive.
func TestMemoEntryDropsInstance(t *testing.T) {
	stencil, err := kernels.ByName("stencil")
	if err != nil {
		t.Fatal(err)
	}
	b := &finalizedBench{Benchmark: stencil, freed: make(chan struct{})}
	c := Cell{Bench: b, Version: kernels.Naive, Machine: machine.WestmereX980(), N: LegalN(stencil, stencil.TestN())}
	memo := NewMemo()
	if _, err := NewScheduler(1, memo, false).Run(context.Background(), []Cell{c}); err != nil {
		t.Fatal(err)
	}

	// The memo stays live below, so only the entry can be what pins the
	// array.
	deadline := time.Now().Add(10 * time.Second)
wait:
	for {
		runtime.GC()
		select {
		case <-b.freed:
			break wait
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Error("the cell's output array is still reachable after its measurement was memoized")
			break
		}
	}

	key := c.key(false)
	m := memo.entries[key].meas
	if m.Inst == nil || m.Inst.Prog != nil || m.Inst.Arrays != nil || m.Inst.Check != nil {
		t.Fatalf("memo entry instance = %+v, want the post-execution view (no Prog, Arrays or Check)", m.Inst)
	}
	if m.Inst.SourceStmts == 0 || m.Inst.Report == nil {
		t.Errorf("memo entry lost SourceStmts (%d) or Report (%v)", m.Inst.SourceStmts, m.Inst.Report)
	}
	enc, err := encodeMeasurement(key.String(), m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeMeasurement(enc, key.String())
	if err != nil {
		t.Fatal(err)
	}
	reenc, err := encodeMeasurement(key.String(), back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, reenc) {
		t.Errorf("memo entry and its disk round trip encode differently:\n%s\n%s", enc, reenc)
	}
	if !reflect.DeepEqual(m, back) {
		t.Errorf("memo entry %+v differs from its disk round trip %+v", m, back)
	}
}
