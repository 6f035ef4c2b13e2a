package main

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
	"os"
	osexec "os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	"ninjagap/internal/gap"
	"ninjagap/internal/submit"
)

// setupProbes is the number of set-up-only child processes a run starts
// in addition to its passes, so setup_s is a median of several samples.
const setupProbes = 15

// childBudget bounds every child process: a run must end within 180 s.
const childBudget = 170 * time.Second

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// childRun is one finished child process.
type childRun struct {
	p       *passResult
	setupS  float64
	cpuS    float64
	rssMB   float64
	elapsed time.Duration
}

// harness owns the child processes of one benchmark run.
type harness struct {
	self     string
	work     string
	workload string
	seed     int64
	deadline time.Time

	attempted, failed int
	failures          []string
}

// spawn runs one child to completion and collects its report. A child
// that fails counts as one failed operation.
func (h *harness) spawn(args ...string) (*childRun, bool) {
	ctx, cancel := context.WithDeadline(context.Background(), h.deadline)
	defer cancel()
	args = append([]string{"--workload", h.workload, "--seed", strconv.FormatInt(h.seed, 10), "--work", h.work}, args...)
	cmd := osexec.CommandContext(ctx, h.self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	err := cmd.Run()
	run := &childRun{elapsed: time.Since(t0)}
	if err == nil {
		p := new(passResult)
		if err = json.Unmarshal(lastLine(out.Bytes()), p); err == nil {
			run.p = p
		}
	}
	if err != nil {
		h.attempted++
		h.failed++
		h.failures = append(h.failures, fmt.Sprintf("child %v: %v", args, err))
		return nil, false
	}
	run.setupS = float64(run.p.ReadyNs-t0.UnixNano()) / 1e9
	if st := cmd.ProcessState; st != nil {
		run.cpuS = (st.UserTime() + st.SystemTime()).Seconds()
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			run.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	h.attempted += run.p.Attempted
	h.failed += len(run.p.Failures)
	h.failures = append(h.failures, run.p.Failures...)
	return run, true
}

// pass runs pass number n of the workload.
func (h *harness) pass(n int, extra ...string) (*childRun, bool) {
	return h.spawn(append([]string{"--child", "pass", "--pass", strconv.Itoa(n)}, extra...)...)
}

func runHarness(workload string, seed int64, seconds int, trace bool, record string) error {
	if !contains(workloads, workload) {
		return fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	if _, _, err := loadDigests(); err != nil {
		return err
	}
	if _, err := os.Stat("experiments_output.txt"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	h := &harness{self: self, work: work, workload: workload, seed: seed,
		deadline: time.Now().Add(childBudget)}

	var res *result
	if trace {
		res, err = h.traced()
	} else {
		res, err = h.untraced(time.Duration(seconds) * time.Second)
	}
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = h.attempted, h.failed
	res.Correct = h.failed == 0
	for i, f := range h.failures {
		if i == 10 {
			fmt.Printf("FAIL ... and %d more\n", len(h.failures)-10)
			break
		}
		fmt.Println("FAIL", f)
	}
	if record != "" {
		if err := appendRecord(record, workload, seed, trace, res); err != nil {
			return err
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// untraced measures the end-to-end metrics: set-up probes, then passes
// until the run's time is spent. Another pass starts only if the
// projected end overshoots the run by at most half a pass.
func (h *harness) untraced(runFor time.Duration) (*result, error) {
	start := time.Now()
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		if r, ok := h.spawn("--child", "setup"); ok {
			setups = append(setups, r.setupS)
		}
	}
	var walls, cpus, rsss, ops, hitOps, lifetimes []float64
	var counters []map[string]float64
	for n := 0; ; n++ {
		r, ok := h.pass(n)
		if ok {
			setups = append(setups, r.setupS)
			walls = append(walls, r.p.WallS)
			cpus = append(cpus, r.cpuS)
			rsss = append(rsss, r.rssMB)
			for _, o := range r.p.Ops {
				ops = append(ops, o.Ms)
				if o.Class == kindResubmit {
					hitOps = append(hitOps, o.Ms)
				}
			}
			counters = append(counters, r.p.Counters)
			lifetimes = append(lifetimes, r.elapsed.Seconds())
		} else if len(walls) == 0 && n >= 2 {
			return nil, errors.New("no pass completed")
		}
		next := median(lifetimes)
		if math.IsNaN(next) {
			next = 0
		}
		if time.Since(start).Seconds()+next > runFor.Seconds()+next/2 || time.Now().After(h.deadline) {
			break
		}
	}
	if len(walls) == 0 || len(setups) == 0 {
		return nil, errors.New("no pass completed")
	}
	m := map[string]metric{
		"setup_s":     {median(setups), "s"},
		"wall_s":      {median(walls), "s"},
		"cpu_s":       {median(cpus), "s"},
		"peak_rss_mb": {median(rsss), "MB"},
		"op_p50_ms":   {median(ops), "ms"},
		"op_p95_ms":   {percentile(ops, 95), "ms"},
		"ops_per_s":   {float64(len(ops)) / sum(walls), "1/s"},
	}
	samples := map[string]int{"setup_s": len(setups), "wall_s": len(walls), "cpu_s": len(cpus),
		"peak_rss_mb": len(rsss), "op_p50_ms": len(ops), "op_p95_ms": len(ops), "ops_per_s": len(walls)}
	fmt.Printf("workload %s, seed %d: %d passes, %d operations, %d set-ups\n", h.workload, h.seed,
		len(walls), len(ops), len(setups))
	for _, name := range sortedKeys(m) {
		fmt.Printf("  %-18s %12.4f %-4s (n=%d)\n", name, m[name].Value, m[name].Unit, samples[name])
	}
	// Workload-specific figures printed beside the gated metrics.
	fmt.Printf("  %-18s %12.4f %-4s (n=%d)\n", "fail_frac", float64(h.failed)/float64(max(h.attempted, 1)), "", h.attempted)
	switch h.workload {
	case "repro":
		for _, k := range []string{"gap_err_pct", "algo_gap_err_pct"} {
			var vs []float64
			for _, c := range counters {
				vs = append(vs, c[k])
			}
			fmt.Printf("  %-18s %12.4f %-4s (n=%d, simulated)\n", k, median(vs), "%", len(vs))
		}
	case "submit":
		fmt.Printf("  %-18s %12.4f %-4s (n=%d)\n", "submit_hit_p50_ms", median(hitOps), "ms", len(hitOps))
	}
	return &result{Metrics: m}, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// traced makes two untraced and two traced passes of the workload, the
// complement passes that reach the layers the workload does not, and
// the cache probe, and derives the per-layer metrics from the first
// traced pass.
func (h *harness) traced() (*result, error) {
	// Untraced and traced passes in ABBA order, which cancels a linear
	// drift of host speed out of the tracing overhead.
	var plain, traced []float64
	var tr *childRun
	var mainFile string
	for i, on := range []bool{false, true, true, false} {
		var args []string
		file := filepath.Join(h.work, fmt.Sprintf("main-%d.jsonl", i))
		if on {
			args = []string{"--trace-out", file}
		}
		r, ok := h.pass(0, args...)
		if !ok {
			return nil, fmt.Errorf("pass %d of the traced run failed", i)
		}
		if !on {
			plain = append(plain, r.p.WallS)
			continue
		}
		traced = append(traced, r.p.WallS)
		if tr == nil {
			tr, mainFile = r, file
		}
	}
	mainSpans, err := readSpans(mainFile)
	if err != nil {
		return nil, err
	}
	srcs := []*source{{name: "main", spans: mainSpans, counters: tr.p.Counters}}

	// The complement: repro at smoke scale reaches every driver and
	// built-in kernel; one submit session reaches lang, compiler,
	// submit, store and serve.
	comp := &source{name: "complement", counters: map[string]float64{}}
	for _, w := range workloads {
		if w == h.workload || w == "irregular" {
			continue
		}
		file := filepath.Join(h.work, "complement-"+w+".jsonl")
		args := []string{"--child", "pass", "--workload", w, "--trace-out", file}
		if w == "repro" {
			args = append(args, "--scale", "0.1")
		}
		r, ok := h.spawn(args...)
		if !ok {
			return nil, fmt.Errorf("complement %s pass failed", w)
		}
		spans, err := readSpans(file)
		if err != nil {
			return nil, err
		}
		comp.spans = append(comp.spans, spans...)
		for k, v := range r.p.Counters {
			comp.counters[k] += v
		}
	}
	srcs = append(srcs, comp)

	probe, checks, failures := cacheProbe(1<<17, 3)
	h.attempted += checks
	h.failed += len(failures)
	h.failures = append(h.failures, failures...)

	m, from := layerMetrics(srcs, probe)
	m["trace.overhead_pct"] = metric{(sum(traced)/sum(plain) - 1) * 100, "%"}
	fmt.Printf("workload %s, seed %d: traced passes %.3f s, untraced passes %.3f s (tracing overhead %+.1f%%)\n",
		h.workload, h.seed, sum(traced), sum(plain), m["trace.overhead_pct"].Value)
	for _, name := range sortedKeys(m) {
		note := ""
		if from[name] != "" {
			note = "  [" + from[name] + "]"
		}
		fmt.Printf("  %-42s %16.6g %-6s%s\n", name, m[name].Value, m[name].Unit, note)
	}
	return &result{Metrics: m}, nil
}

// catalogDigests submits every catalog kernel once and digests its
// response body.
func catalogDigests() (map[string]string, error) {
	svc := submit.NewService(submit.Limits{})
	out := map[string]string{}
	for _, k := range catalog() {
		o, err := svc.Process(context.Background(), submit.Request{Source: k.source(style{Indent: "    "})}, gap.Config{Jobs: jobs()})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.ID(), err)
		}
		sum := sha256.Sum256(o.Body)
		out[k.ID()] = hex.EncodeToString(sum[:])
	}
	return out, nil
}

// record is one line of a --record file.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Result   *result `json:"result"`
}

func appendRecord(path, workload string, seed int64, trace bool, res *result) error {
	b, err := json.Marshal(record{workload, seed, trace, res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []record
	dec := json.NewDecoder(bytes.NewReader(b))
	for {
		var r record
		if err := dec.Decode(&r); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
}
