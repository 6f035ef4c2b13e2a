package main

// Span recording for the traced run. Every span is recorded here, in the
// benchmark, around a call into one layer's public functions: the
// program itself carries no tracing. Cell-level spans come from
// tracingRemote, which the scheduler offers every cache-missing cell
// through gap.Config.WithRemote.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"ninjagap/internal/cache"
	"ninjagap/internal/exec"
	"ninjagap/internal/gap"
	"ninjagap/internal/kernels"
	"ninjagap/internal/machine"
)

// Span is one timed call into a layer. Start and End are nanoseconds
// since the recorder was created; Parent is 0 for a root span. Spans of
// one request or pass share Req.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Label qualifies the span: a driver ID, a request class, a bench.
	Label   string `json:"label,omitempty"`
	Version string `json:"version,omitempty"`
	// Engine counts, on exec.run spans only.
	Instrs uint64             `json:"instrs,omitempty"`
	DRAM   uint64             `json:"dram,omitempty"`
	Cache  []cache.LevelStats `json:"cache,omitempty"`
}

// Seconds is the span's duration.
func (s *Span) Seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// Recorder keeps spans in memory until Write. A nil *Recorder records
// nothing, so untraced passes run the same code.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []*Span
}

// NewRecorder starts an empty recorder.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

type spanKey struct{}

type spanCtx struct {
	id  int64
	req string
}

// Begin opens a span named name under the span carried by ctx (or as a
// root span of request req when ctx carries none and req is set) and
// returns a context carrying the new span.
func (r *Recorder) Begin(ctx context.Context, name, req string) (context.Context, *Span) {
	if r == nil {
		return ctx, nil
	}
	s := &Span{Name: name, Req: req}
	if p, ok := ctx.Value(spanKey{}).(spanCtx); ok {
		s.Parent = p.id
		if s.Req == "" {
			s.Req = p.req
		}
	}
	r.mu.Lock()
	r.next++
	s.ID = r.next
	r.mu.Unlock()
	s.Start = int64(time.Since(r.t0))
	return context.WithValue(ctx, spanKey{}, spanCtx{s.ID, s.Req}), s
}

// End closes s and keeps it. End(nil) does nothing.
func (r *Recorder) End(s *Span) {
	if r == nil || s == nil {
		return
	}
	s.End = int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Write stores the spans as JSONL.
func (r *Recorder) Write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans loads a JSONL span file.
func readSpans(path string) ([]*Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*Span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		s := new(Span)
		if err := dec.Decode(s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// selfSeconds is a span's duration minus the part of it that its
// children cover (overlapping children are counted once).
func selfSeconds(s *Span, children []*Span) float64 {
	covered := int64(0)
	var curS, curE int64 = -1, -1
	for _, c := range sortedByStart(children) {
		st, en := max(c.Start, s.Start), min(c.End, s.End)
		if en <= st {
			continue
		}
		if st > curE {
			covered += curE - curS
			curS, curE = st, en
		} else if en > curE {
			curE = en
		}
	}
	covered += curE - curS
	return float64(s.End-s.Start-covered) / 1e9
}

// tracingRemote rebuilds each cell the scheduler offers it from the
// cell's wire spec and measures it the way the scheduler's local path
// does — prepare, run, check — timing each phase. Its results must be
// bit-identical to local execution; the repro byte comparison proves it.
type tracingRemote struct{ rec *Recorder }

func (t tracingRemote) MeasureCell(ctx context.Context, spec gap.CellSpec, _ string) (*gap.Measurement, error) {
	ctx, cs := t.rec.Begin(ctx, "gap.cell", "")
	defer t.rec.End(cs)
	var b kernels.Benchmark
	var err error
	if spec.Source != "" {
		b, err = kernels.FromSource(spec.Source)
	} else {
		b, err = kernels.ByName(spec.Bench)
	}
	if err != nil {
		return nil, err
	}
	v, err := kernels.ParseVersion(spec.Version)
	if err != nil {
		return nil, err
	}
	m, err := machine.UnmarshalModel(spec.Machine)
	if err != nil {
		return nil, err
	}
	threads := spec.Threads
	if threads == 0 {
		threads = m.HWThreads()
		if v.Serial() {
			threads = 1
		}
	}
	cs.Label, cs.Version = b.Name(), v.String()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, ps := t.rec.Begin(ctx, "kernels.prepare", "")
	inst, err := b.Prepare(v, m, spec.N)
	t.rec.End(ps)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, es := t.rec.Begin(ctx, "exec.run", "")
	res, err := exec.Run(inst.Prog, inst.Arrays, m, exec.Options{
		Threads: threads, DisablePrefetch: spec.DisablePrefetch, Macroblock: spec.Macroblock,
	})
	if err != nil {
		return nil, err
	}
	es.Label, es.Version = b.Name(), v.String()
	es.Instrs, es.DRAM, es.Cache = res.DynInstrs, res.DRAMBytes, res.CacheStats
	t.rec.End(es)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !spec.SkipCheck {
		_, ks := t.rec.Begin(ctx, "kernels.check", "")
		err := inst.Check()
		t.rec.End(ks)
		if err != nil {
			return nil, err
		}
	}
	return &gap.Measurement{
		Bench: b.Name(), Version: v, Machine: m.Name, N: spec.N,
		Threads: threads, Res: res, Inst: inst,
	}, nil
}
