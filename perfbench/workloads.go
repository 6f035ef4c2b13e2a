package main

// The three workloads, each run as one pass in a fresh child process.
// A pass reports its operations' latencies, the failures its output
// checks found, and (when traced) the counters the per-layer metrics
// need; the harness adds the process's CPU time and peak memory.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"ninjagap/internal/compiler"
	"ninjagap/internal/exec"
	"ninjagap/internal/gap"
	"ninjagap/internal/kernels"
	"ninjagap/internal/lang"
	"ninjagap/internal/machine"
	"ninjagap/internal/serve"
	"ninjagap/internal/store"
	"ninjagap/internal/submit"
)

// op is one timed operation of a pass, the unit a user waits on: the
// whole pass (repro, as one `ninjagap all`), a row of cells (irregular,
// as one /v1/measure request) or a request (submit).
type op struct {
	Ms    float64 `json:"ms"`
	Class string  `json:"class,omitempty"` // submit: new, resubmit, over
}

// passResult is what a child process reports on its last stdout line.
type passResult struct {
	ReadyNs   int64              `json:"ready_ns"` // Unix time the first operation could be issued
	WallS     float64            `json:"wall_s"`   // first operation issued to last one done
	Ops       []op               `json:"ops"`
	Attempted int                `json:"attempted"`
	Failures  []string           `json:"failures,omitempty"`
	Counters  map[string]float64 `json:"counters,omitempty"`
}

func (p *passResult) fail(format string, args ...any) {
	p.Failures = append(p.Failures, fmt.Sprintf(format, args...))
}

func (p *passResult) ready() { p.ReadyNs = time.Now().UnixNano() }

func (p *passResult) count(name string, v float64) {
	if p.Counters == nil {
		p.Counters = map[string]float64{}
	}
	p.Counters[name] += v
}

// jobs is the scheduler's worker count: one per host CPU, as `ninjagap
// all` uses by default.
func jobs() int { return runtime.NumCPU() }

// engineCounters snapshots the process-wide counters a traced pass
// reports as deltas.
func engineCounters() map[string]float64 {
	hits, misses := gap.MemoStats()
	return map[string]float64{
		"memo_hits": float64(hits), "memo_misses": float64(misses),
		"fused": float64(exec.FusedInstrs()), "replayed": float64(exec.ReplayedInstrs()),
	}
}

func (p *passResult) countDeltas(before map[string]float64) {
	for k, v := range engineCounters() {
		p.count(k, v-before[k])
	}
}

// reproPass runs every experiment driver the way `ninjagap all` does and
// compares the text with want (when non-nil) driver by driver.
func reproPass(scale float64, want []byte, rec *Recorder) (*passResult, []byte) {
	p := &passResult{}
	cfg := gap.Config{Scale: scale, Jobs: jobs()}
	if rec != nil {
		cfg = cfg.WithRemote(tracingRemote{rec})
	}
	var out bytes.Buffer
	before := engineCounters()
	p.ready()
	start := time.Now()
	for _, id := range gap.DriverIDs() {
		p.Attempted++
		ctx, ds := rec.Begin(context.Background(), "gap.driver", "repro")
		ds.maybeLabel(id)
		o, err := gap.Dispatch(id, cfg.WithContext(ctx))
		rec.End(ds)
		if err != nil {
			p.fail("%s: %v", id, err)
			continue
		}
		_, es := rec.Begin(ctx, "gap.emit", "repro")
		off := out.Len()
		err = o.Emit(&out, "text")
		rec.End(es)
		out.WriteString("\n")
		switch {
		case err != nil:
			p.fail("%s: emit: %v", id, err)
		case want != nil && !bytes.HasPrefix(want[min(off, len(want)):], out.Bytes()[off:]):
			p.fail("%s: text differs from experiments_output.txt", id)
		}
		switch d := o.Data.(type) {
		case *gap.GapResult:
			if id == "fig1" {
				p.count("gap_err_pct", math.Abs(d.GeoGap-24)/24*100)
			}
		case *gap.LadderResult:
			if id == "fig5" {
				p.count("algo_gap_err_pct", math.Abs(d.AvgGap-1.3)/1.3*100)
			}
		}
	}
	if want != nil && out.Len() != len(want) {
		p.Attempted++
		p.fail("output is %d bytes, experiments_output.txt has %d", out.Len(), len(want))
	}
	p.WallS = time.Since(start).Seconds()
	p.Ops = []op{{Ms: p.WallS * 1e3}}
	if rec != nil {
		p.countDeltas(before)
	}
	return p, out.Bytes()
}

func (s *Span) maybeLabel(l string) {
	if s != nil {
		s.Label = l
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// irregularBenches are the kernels whose cost is dominated by cache-miss
// simulation.
var irregularBenches = []string{"treesearch", "mergesort", "volumerender", "backprojection"}

// irregularRows lists the workload's (kernel, machine) rows in the
// seed's order; each row measures all five versions.
func irregularRows(seed int64) [][2]string {
	var rows [][2]string
	for _, b := range irregularBenches {
		for _, m := range machine.All() {
			rows = append(rows, [2]string{b, m.Name})
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return rows
}

// resultDigest fingerprints a full engine result.
func resultDigest(res *exec.Result) string {
	b, err := json.Marshal(res)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func cellID(bench string, v kernels.Version, mach string) string {
	return bench + "/" + v.String() + "/" + mach
}

// irregularPass measures the 100 irregular cells at evaluation size with
// reference checks on, one RunCells call per row, and compares every
// result with its recorded digest (want nil: no comparison).
func irregularPass(seed int64, want map[string]string, rec *Recorder) (*passResult, map[string]string) {
	p := &passResult{}
	cfg := gap.Config{Scale: 1, Jobs: jobs()}
	if rec != nil {
		cfg = cfg.WithRemote(tracingRemote{rec})
	}
	got := map[string]string{}
	before := engineCounters()
	p.ready()
	start := time.Now()
	for _, row := range irregularRows(seed) {
		b, err := kernels.ByName(row[0])
		if err != nil {
			p.fail("%v", err)
			continue
		}
		m, err := machine.ByName(row[1])
		if err != nil {
			p.fail("%v", err)
			continue
		}
		var cells []gap.Cell
		for _, v := range kernels.Versions() {
			cells = append(cells, gap.Cell{Bench: b, Version: v, Machine: m, N: gap.SizeFor(b, cfg)})
		}
		p.Attempted += len(cells)
		t0 := time.Now()
		ctx, rs := rec.Begin(context.Background(), "gap.row", row[0]+"/"+row[1])
		ms, err := gap.RunCells(cfg.WithContext(ctx), cells)
		rec.End(rs)
		p.Ops = append(p.Ops, op{Ms: msSince(t0)})
		if err != nil {
			p.fail("%s on %s: %v", row[0], row[1], err)
			continue
		}
		for i, c := range cells {
			id := cellID(row[0], c.Version, row[1])
			got[id] = resultDigest(ms[i].Res)
			if want != nil && want[id] != got[id] {
				p.fail("%s: result differs from the recorded digest", id)
			}
		}
	}
	p.WallS = time.Since(start).Seconds()
	if rec != nil {
		p.countDeltas(before)
	}
	return p, got
}

// submitServer is an in-process ninjagapd: the real handler on a
// loopback listener with a fresh cache directory attached.
type submitServer struct {
	url string
	hs  *http.Server
	ln  net.Listener
	wg  sync.WaitGroup
}

func startSubmitServer(cacheDir string) (*submitServer, error) {
	if err := gap.SetCacheDir(cacheDir); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &submitServer{url: "http://" + ln.Addr().String(), ln: ln,
		hs: &http.Server{Handler: serve.New(serve.Config{}).Handler()}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return s, nil
}

func (s *submitServer) close() {
	_ = s.hs.Close()
	s.wg.Wait()
}

// submitOutcome is one answered request, as a client saw it.
type submitOutcome struct {
	status   int
	memo     string
	computed int
	body     []byte
}

// checkSubmit applies the output checks to one answer. firsts holds the
// body of each kernel's first submission in this session.
func checkSubmit(p *passResult, req submitReq, o submitOutcome, digests map[string]string, firsts map[string][]byte) {
	switch req.Kind {
	case kindOver:
		var e struct {
			Code string `json:"code"`
			Msg  string `json:"error"`
		}
		_ = json.Unmarshal(o.body, &e)
		if o.status != http.StatusUnprocessableEntity || e.Code != string(submit.CodeLimit) || !strings.Contains(e.Msg, req.Phrase) {
			p.fail("over-limit %s: got %d %q %q, want 422 limit_exceeded naming %q", req.Kernel, o.status, e.Code, e.Msg, req.Phrase)
		}
	case kindNew:
		sum := sha256.Sum256(o.body)
		switch {
		case o.status != http.StatusOK:
			p.fail("new %s: status %d: %s", req.Kernel, o.status, firstLine(o.body))
		case o.memo != "miss":
			p.fail("new %s: memo %q, want miss", req.Kernel, o.memo)
		case digests != nil && hex.EncodeToString(sum[:]) != digests[req.Kernel]:
			p.fail("new %s: body differs from the recorded digest", req.Kernel)
		}
		firsts[req.Kernel] = o.body
	case kindResubmit:
		if o.status != http.StatusOK || o.memo != "hit" || o.computed != 0 || !bytes.Equal(o.body, firsts[req.Kernel]) {
			p.fail("resubmit %s: status %d memo %q computed %d, identical body %v", req.Kernel, o.status, o.memo, o.computed, bytes.Equal(o.body, firsts[req.Kernel]))
		}
	}
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(string(b), "\n")
	return s
}

// runClients drives the session's closed loop: each client sends its
// next request only after the previous reply. do performs one request
// and returns its outcome.
func runClients(p *passResult, sess session, digests map[string]string, do func(c, i int, r submitReq) submitOutcome) []op {
	var mu sync.Mutex
	ops := make([][]op, 2)
	var wg sync.WaitGroup
	for c := range sess.Clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			firsts := map[string][]byte{}
			for i, req := range sess.Clients[c] {
				t0 := time.Now()
				o := do(c, i, req)
				ops[c] = append(ops[c], op{Ms: msSince(t0), Class: req.Kind})
				mu.Lock()
				p.Attempted++
				checkSubmit(p, req, o, digests, firsts)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return append(ops[0], ops[1]...)
}

// postSubmit sends one submission and reads the reply to its last byte.
func postSubmit(client *http.Client, url, src string) submitOutcome {
	resp, err := client.Post(url+"/v1/submit", "text/plain", strings.NewReader(src))
	if err != nil {
		return submitOutcome{body: []byte(err.Error())}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return submitOutcome{body: []byte(err.Error())}
	}
	computed, _ := strconv.Atoi(resp.Header.Get("X-Ninjagap-Computed-Cells"))
	return submitOutcome{status: resp.StatusCode, memo: resp.Header.Get("X-Ninjagap-Submit-Memo"),
		computed: computed, body: body}
}

// submitPass serves one session over HTTP from a fresh server. With a
// recorder it then replays the same session by calling the submission
// service directly, with its layers timed from outside, so that HTTP and
// Process latencies of the same requests can be compared.
func submitPass(seed int64, n int, workDir string, digests map[string]string, rec *Recorder) (*passResult, error) {
	p := &passResult{}
	sess := genSession(seed, n)
	dir, err := os.MkdirTemp(workDir, "submit-cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv, err := startSubmitServer(dir)
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: 2}
	client := &http.Client{Transport: tr}
	p.ready()
	start := time.Now()
	p.Ops = runClients(p, sess, digests, func(c, i int, r submitReq) submitOutcome {
		_, s := rec.Begin(context.Background(), "serve.request", fmt.Sprintf("c%d.%d", c, i))
		s.maybeLabel(r.Kind)
		o := postSubmit(client, srv.url, r.Source)
		rec.End(s)
		return o
	})
	p.WallS = time.Since(start).Seconds()
	tr.CloseIdleConnections()
	srv.close()
	if rec == nil {
		return p, nil
	}

	// Direct replay: a fresh memo, cache directory and service.
	gap.ResetMemo()
	dir2, err := os.MkdirTemp(workDir, "submit-cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir2)
	if err := gap.SetCacheDir(dir2); err != nil {
		return nil, err
	}
	svc := submit.NewService(submit.Limits{})
	cfg := gap.Config{Jobs: jobs()}.WithRemote(tracingRemote{rec})
	before := engineCounters()
	var mu sync.Mutex
	var bodySizes []int
	direct := &passResult{}
	runClients(direct, sess, digests, func(c, i int, r submitReq) submitOutcome {
		ctx, rs := rec.Begin(context.Background(), "submit.request", fmt.Sprintf("c%d.%d", c, i))
		rs.maybeLabel(r.Kind)
		defer rec.End(rs)
		_, ns := rec.Begin(ctx, "lang.normalize", "")
		_, k, err := lang.Normalize(r.Source)
		rec.End(ns)
		if err == nil {
			_, as := rec.Begin(ctx, "lang.analyze", "")
			st := lang.Analyze(k)
			rec.End(as)
			if svc.Limits().Lang.Check(st) == nil {
				for _, lvl := range compiler.Levels() {
					_, cs := rec.Begin(ctx, "compiler.compile", "")
					cs.maybeLabel(r.Kind)
					opt, _ := compiler.ByLevel(lvl)
					_, _ = compiler.Compile(k, opt)
					rec.End(cs)
				}
			}
		}
		pctx, ps := rec.Begin(ctx, "submit.process", "")
		out, err := svc.Process(pctx, submit.Request{Source: r.Source}, cfg)
		switch {
		case err != nil:
			ps.maybeLabel("rejected")
		case out.MemoHit:
			ps.maybeLabel("hit")
		default:
			ps.maybeLabel("miss")
		}
		rec.End(ps)
		var se *submit.Error
		switch {
		case errors.As(err, &se):
			b, _ := json.Marshal(se)
			return submitOutcome{status: se.HTTPStatus(), body: b}
		case err != nil:
			return submitOutcome{body: []byte(err.Error())}
		}
		mu.Lock()
		defer mu.Unlock()
		memo := "miss"
		if out.MemoHit {
			memo = "hit"
			p.count("submit_hits", 1)
		}
		p.count("submit_accepted", 1)
		p.count("submit_cells_computed", float64(out.Computed))
		if !out.MemoHit {
			bodySizes = append(bodySizes, len(out.Body))
			p.count("body_bytes", float64(len(out.Body)))
			p.count("body_count", 1)
		}
		return submitOutcome{status: http.StatusOK, memo: memo, computed: out.Computed, body: out.Body}
	})
	p.Attempted += direct.Attempted
	p.Failures = append(p.Failures, direct.Failures...)
	p.countDeltas(before)
	diskHits, diskStores, _ := gap.CacheDirStats()
	p.count("disk_hits", float64(diskHits))
	p.count("disk_stores", float64(diskStores))
	for _, o := range p.Ops {
		if o.Class == kindOver {
			p.count("serve_rejected", 1)
		}
	}
	return p, storeProbe(rec, filepath.Join(dir2, "probe"), bodySizes)
}

// storeProbe times store.Put and store.Get on payloads of the sizes the
// session's responses had.
func storeProbe(rec *Recorder, dir string, sizes []int) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(1))
	for i, n := range sizes {
		payload := make([]byte, n)
		r.Read(payload)
		key := fmt.Sprintf("perfbench-probe/%d", i)
		_, ps := rec.Begin(context.Background(), "store.put", "probe")
		err := st.Put(key, payload)
		rec.End(ps)
		if err != nil {
			return err
		}
		_, gs := rec.Begin(context.Background(), "store.get", "probe")
		got, ok := st.Get(key)
		rec.End(gs)
		if !ok || !bytes.Equal(got, payload) {
			return fmt.Errorf("store probe: entry %d did not read back", i)
		}
	}
	return nil
}
