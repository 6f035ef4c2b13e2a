package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"

	"ninjagap/internal/gap"
)

// The tracing Remote must reproduce the scheduler's own cell execution
// exactly: a traced pass renders the same bytes as an untraced one.
func TestTracedReproMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiment suite twice at smoke scale")
	}
	gap.ResetMemo()
	plain, want := reproPass(0.1, nil, nil)
	gap.ResetMemo()
	rec := NewRecorder()
	traced, got := reproPass(0.1, want, rec)
	for _, f := range append(plain.Failures, traced.Failures...) {
		t.Error(f)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("traced output differs from untraced output")
	}
	cells := 0
	for _, s := range rec.spans {
		if s.Name == "gap.cell" {
			cells++
		}
	}
	if cells == 0 {
		t.Error("the tracing Remote measured no cell")
	}
}

func TestRecorderParentsAndWrite(t *testing.T) {
	rec := NewRecorder()
	ctx, root := rec.Begin(context.Background(), "root", "r1")
	_, child := rec.Begin(ctx, "child", "")
	rec.End(child)
	rec.End(root)
	if child.Parent != root.ID || child.Req != "r1" {
		t.Fatalf("child %+v does not inherit root %+v", child, root)
	}
	path := t.TempDir() + "/spans.jsonl"
	if err := rec.Write(path); err != nil {
		t.Fatal(err)
	}
	spans, err := readSpans(path)
	if err != nil || len(spans) != 2 || spans[0].Name != "child" {
		t.Fatalf("read back %v, %v", spans, err)
	}
	var nilRec *Recorder
	if _, s := nilRec.Begin(ctx, "x", ""); s != nil {
		t.Error("a nil recorder recorded a span")
	}
}

// The traced run prints exactly the per-layer metrics BENCHMARK.json
// declares.
func TestLayerMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range spec.PerLayer {
		want = append(want, m.Name)
	}
	probe, _, _ := cacheProbe(64, 1)
	m, _ := layerMetrics([]*source{{name: "main", counters: map[string]float64{}}}, probe)
	m["trace.overhead_pct"] = metric{}
	got := sortedKeys(m)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("traced run reports %d metrics, BENCHMARK.json declares %d:\n%v\n%v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("metric %q reported, %q declared", got[i], want[i])
		}
	}
}
