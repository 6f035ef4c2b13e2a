package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ninjagap/internal/gap"
	"ninjagap/internal/kernels"
	"ninjagap/internal/machine"
)

// coordinatorServer wires a coordinator in front of worker URLs at the
// given experiment config.
func coordinatorServer(cfg Config, workers []string) (*Server, *httptest.Server) {
	cfg.Workers = workers
	s := New(cfg)
	return s, httptest.NewServer(s.Handler())
}

// TestCoordinatorSnapshotByteIdentity is the coordinator acceptance
// contract: a snapshot assembled from cells measured on two worker
// daemons must be byte-identical to a single-process bench-export run.
func TestCoordinatorSnapshotByteIdentity(t *testing.T) {
	cfg := smallCfg()

	// Single-process reference, computed fresh.
	gap.ResetMemo()
	out, err := gap.Dispatch("bench-export", gap.Config{Scale: cfg.Scale, Benches: cfg.Benches, Jobs: cfg.Jobs})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := out.Emit(&want, "json"); err != nil {
		t.Fatal(err)
	}

	w1 := httptest.NewServer(New(smallCfg()).Handler())
	defer w1.Close()
	w2 := httptest.NewServer(New(smallCfg()).Handler())
	defer w2.Close()

	ccfg := cfg
	ccfg.HedgeDelay = 30 * time.Second // keep hedging out of the counters
	coord, ts := coordinatorServer(ccfg, []string{w1.URL, w2.URL})
	defer ts.Close()

	// Wipe the process-wide memos so the coordinator's cells actually
	// travel the remote path instead of hitting memory.
	gap.ResetMemo()
	code, body, _ := get(t, ts.URL+"/v1/snapshot")
	if code != http.StatusOK {
		t.Fatalf("coordinator snapshot = %d: %s", code, body)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("coordinator snapshot differs from single-process bench-export (%d vs %d bytes)",
			len(body), want.Len())
	}
	remote, _, failures, fallbacks := coord.pool.Stats()
	if remote == 0 {
		t.Error("no cells were measured remotely — the coordinator ran everything locally")
	}
	if failures != 0 || fallbacks != 0 {
		t.Errorf("healthy fleet recorded failures=%d fallbacks=%d, want 0/0", failures, fallbacks)
	}
}

// TestCoordinatorFig1MatchesGolden extends the golden byte-identity
// tests to coordinator mode: fig1 assembled from two workers must equal
// the committed single-process golden snapshot, byte for byte.
func TestCoordinatorFig1MatchesGolden(t *testing.T) {
	golden, err := os.ReadFile("../gap/testdata/fig1_smoke.golden.txt")
	if err != nil {
		t.Fatal(err)
	}

	w1 := httptest.NewServer(New(Config{Scale: 0.05, Jobs: 1}).Handler())
	defer w1.Close()
	w2 := httptest.NewServer(New(Config{Scale: 0.05, Jobs: 1}).Handler())
	defer w2.Close()
	ccfg := Config{Scale: 0.05, Jobs: 1, HedgeDelay: 30 * time.Second}
	coord, ts := coordinatorServer(ccfg, []string{w1.URL, w2.URL})
	defer ts.Close()

	gap.ResetMemo()
	code, body, _ := get(t, ts.URL+"/v1/figure/fig1?format=text")
	if code != http.StatusOK {
		t.Fatalf("coordinator fig1 = %d: %s", code, body)
	}
	if string(body) != string(golden) {
		t.Errorf("coordinator fig1 diverged from the golden snapshot\n--- got ---\n%s\n--- want ---\n%s",
			body, golden)
	}
	if remote, _, _, _ := coord.pool.Stats(); remote == 0 {
		t.Error("golden figure never exercised the remote path")
	}
}

// TestCoordinatorUnreachableFleetFallsBack: a coordinator whose workers
// are all dead degrades to local execution and still produces the exact
// single-process bytes.
func TestCoordinatorUnreachableFleetFallsBack(t *testing.T) {
	cfg := smallCfg()
	gap.ResetMemo()
	out, err := gap.Dispatch("bench-export", gap.Config{Scale: cfg.Scale, Benches: cfg.Benches, Jobs: cfg.Jobs})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := out.Emit(&want, "json"); err != nil {
		t.Fatal(err)
	}

	// A listener that is immediately closed: connections are refused.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	coord, ts := coordinatorServer(cfg, []string{deadURL})
	defer ts.Close()

	gap.ResetMemo()
	code, body, _ := get(t, ts.URL+"/v1/snapshot")
	if code != http.StatusOK {
		t.Fatalf("snapshot with dead fleet = %d: %s", code, body)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Error("fallback snapshot differs from single-process bench-export")
	}
	remote, _, failures, fallbacks := coord.pool.Stats()
	if remote != 0 {
		t.Errorf("dead fleet somehow resolved %d cells remotely", remote)
	}
	if failures == 0 || fallbacks == 0 {
		t.Errorf("dead fleet recorded failures=%d fallbacks=%d, want both > 0", failures, fallbacks)
	}
}

// testCellEntry measures one real cell locally and returns its wire
// spec, canonical key, and encoded entry — the raw material for fake
// workers.
func testCellEntry(t *testing.T) (gap.CellSpec, string, []byte) {
	t.Helper()
	b, err := kernels.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := machine.MarshalModel(machine.WestmereX980())
	if err != nil {
		t.Fatal(err)
	}
	spec := gap.CellSpec{
		Bench:   "blackscholes",
		Version: "naive",
		Machine: mb,
		N:       gap.LegalN(b, b.TestN()),
	}
	entry, err := gap.ExecuteCellSpec(context.Background(), spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(entry, &e); err != nil {
		t.Fatal(err)
	}
	if e.Key == "" {
		t.Fatal("entry carries no key")
	}
	return spec, e.Key, entry
}

// fakeWorker serves a canned entry, optionally stalling or failing, so
// pool dispatch behavior is testable without timing on real simulations.
type fakeWorker struct {
	srv   *httptest.Server
	block chan struct{} // closed = answer immediately
	fail  atomic.Bool   // true = answer 500
	hits  atomic.Int64
}

func newFakeWorker(entry []byte) *fakeWorker {
	fw := &fakeWorker{block: make(chan struct{})}
	fw.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fw.hits.Add(1)
		// Drain the body: the server only notices a vanished client (and
		// cancels r.Context()) once the request body has been consumed,
		// and a stalled worker must still unblock when its coordinator
		// abandons the request.
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-fw.block:
		case <-r.Context().Done():
			return
		}
		if fw.fail.Load() {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(entry)
	}))
	return fw
}

// TestPoolHedgesStraggler: when the primary worker stalls past the hedge
// delay, the cell is re-dispatched to the next ring candidate and the
// fast answer wins — well before the straggler would have responded.
func TestPoolHedgesStraggler(t *testing.T) {
	spec, key, entry := testCellEntry(t)
	fws := []*fakeWorker{newFakeWorker(entry), newFakeWorker(entry)}
	defer fws[0].srv.Close()
	defer fws[1].srv.Close()

	p := NewPool([]string{fws[0].srv.URL, fws[1].srv.URL}, 20*time.Millisecond)
	cands := p.candidates(key)
	if len(cands) != 2 {
		t.Fatalf("candidates = %v, want 2 distinct workers", cands)
	}
	primary, secondary := fws[cands[0]], fws[cands[1]]
	close(secondary.block) // the hedge target answers instantly; the primary never does

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	m, err := p.MeasureCell(ctx, spec, key)
	if err != nil {
		t.Fatalf("hedged measure failed: %v", err)
	}
	if m.Bench != "blackscholes" {
		t.Errorf("hedged result for wrong cell: %+v", m)
	}
	remote, hedged, failures, _ := p.Stats()
	if remote != 1 || hedged != 1 {
		t.Errorf("stats remote=%d hedged=%d, want 1/1", remote, hedged)
	}
	if failures != 0 {
		t.Errorf("straggler counted as %d failures — it was abandoned, not failed", failures)
	}
	if primary.hits.Load() != 1 || secondary.hits.Load() != 1 {
		t.Errorf("dispatch counts primary=%d secondary=%d, want 1/1",
			primary.hits.Load(), secondary.hits.Load())
	}
}

// TestPoolRetriesFailedWorker: a worker that answers with an error frees
// its slot immediately — the next candidate is tried without waiting for
// the hedge timer.
func TestPoolRetriesFailedWorker(t *testing.T) {
	spec, key, entry := testCellEntry(t)
	fws := []*fakeWorker{newFakeWorker(entry), newFakeWorker(entry)}
	defer fws[0].srv.Close()
	defer fws[1].srv.Close()
	close(fws[0].block)
	close(fws[1].block)

	// A long hedge delay proves the retry is failure-driven, not
	// timer-driven.
	p := NewPool([]string{fws[0].srv.URL, fws[1].srv.URL}, time.Hour)
	cands := p.candidates(key)
	fws[cands[0]].fail.Store(true)

	start := time.Now()
	m, err := p.MeasureCell(context.Background(), spec, key)
	if err != nil {
		t.Fatalf("measure with one failing worker: %v", err)
	}
	if m == nil || m.Bench != "blackscholes" {
		t.Errorf("wrong measurement: %+v", m)
	}
	if time.Since(start) > 30*time.Second {
		t.Error("retry waited for the hedge timer instead of reacting to the failure")
	}
	remote, hedged, failures, fallbacks := p.Stats()
	if remote != 1 || failures != 1 || hedged != 0 || fallbacks != 0 {
		t.Errorf("stats remote=%d hedged=%d failures=%d fallbacks=%d, want 1/0/1/0",
			remote, hedged, failures, fallbacks)
	}
}

// TestPoolRejectsKeyMismatch: a syntactically valid response whose
// recorded key is not the one the coordinator asked for must never be
// accepted as a measurement.
func TestPoolRejectsKeyMismatch(t *testing.T) {
	spec, key, entry := testCellEntry(t)
	fw := newFakeWorker(entry)
	defer fw.srv.Close()
	close(fw.block)

	p := NewPool([]string{fw.srv.URL}, time.Hour)
	_, err := p.MeasureCell(context.Background(), spec, key+"-drifted")
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("key-mismatched response yielded %v, want ErrNoWorkers", err)
	}
	remote, _, failures, fallbacks := p.Stats()
	if remote != 0 || failures != 1 || fallbacks != 1 {
		t.Errorf("stats remote=%d failures=%d fallbacks=%d, want 0/1/1", remote, failures, fallbacks)
	}
}

// TestCellEndpoint drives the worker half over real HTTP: the happy
// path, malformed bodies, unknown cells, and the key cross-check.
func TestCellEndpoint(t *testing.T) {
	spec, key, _ := testCellEntry(t)
	ts := httptest.NewServer(New(smallCfg()).Handler())
	defer ts.Close()

	post := func(t *testing.T, body []byte) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/cell", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}
	marshal := func(req cellRequest) []byte {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	code, body := post(t, marshal(cellRequest{Key: key, Spec: spec}))
	if code != http.StatusOK {
		t.Fatalf("valid cell = %d: %s", code, body)
	}
	if _, err := gap.DecodeCellResult(body, key); err != nil {
		t.Errorf("response does not verify against the requested key: %v", err)
	}

	if code, body = post(t, []byte("{not json")); code != http.StatusBadRequest {
		t.Errorf("malformed body = %d (%s), want 400", code, body)
	}

	bad := spec
	bad.Bench = "no-such-bench"
	if code, body = post(t, marshal(cellRequest{Key: key, Spec: bad})); code != http.StatusInternalServerError {
		t.Errorf("unknown bench = %d (%s), want 500", code, body)
	}

	if code, body = post(t, marshal(cellRequest{Key: key + "-drifted", Spec: spec})); code != http.StatusConflict {
		t.Errorf("key mismatch = %d (%s), want 409", code, body)
	}

	// A coordinator still on the v2 key layout (schema v2, a macro-block
	// mode before the trailing prefetch/check flags) fails the same
	// cross-check.
	f := strings.Split(key, "|")
	f[0] = "ninjagap-cell/v2"
	v2Key := strings.Join(append(f[:len(f)-2:len(f)-2], "auto", f[len(f)-2], f[len(f)-1]), "|")
	if code, body = post(t, marshal(cellRequest{Key: v2Key, Spec: spec})); code != http.StatusConflict {
		t.Errorf("v2 key = %d (%s), want 409", code, body)
	}
}
