package main

// Compare mode: given the recorded results of a parent commit and of a
// change, print each side's median and quartiles for every workload x
// end-to-end metric, and a verdict:
//
//   - better: at least ten pairs, the change wins at least nine tenths
//     of them (ties count for neither side), and the medians differ by
//     more than the parent's own spread (its interquartile range);
//   - worse: the change's median is worse than the parent's by more than
//     the metric's bound in BENCHMARK.json;
//   - unresolved: neither, and the parent's spread is wider than the
//     bound, unless every change run reads better than every parent run;
//   - unchanged: otherwise.
//
// Pairs are formed in recording order, per workload.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json compare mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func compare(w io.Writer, specPath, parentPath, changePath string) error {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %-12s %5s  %-30s %-30s %s\n", "workload", "metric", "pairs",
		"parent median [q1, q3]", "change median [q1, q3]", "verdict")
	for _, wl := range workloads {
		for _, e := range spec.EndToEnd {
			pv, cv := values(parent, wl, e.Name), values(change, wl, e.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			lower := e.Better == "lower"
			pq1, pq3 := quartiles(pv)
			cq1, cq3 := quartiles(cv)
			fmt.Fprintf(w, "%-10s %-12s %5d  %-30s %-30s %s\n", wl, e.Name, min(len(pv), len(cv)),
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", median(pv), pq1, pq3, e.Unit),
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", median(cv), cq1, cq3, e.Unit),
				verdict(pv, cv, lower, e.Bound))
		}
	}
	return nil
}

// values collects one metric of one workload's untraced runs.
func values(rs []record, workload, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if r.Workload != workload || r.Trace || r.Result == nil {
			continue
		}
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict applies the rule in the file comment.
func verdict(parent, change []float64, lower bool, bound float64) string {
	better := func(c, p float64) bool {
		if lower {
			return c < p
		}
		return c > p
	}
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	pairs := min(len(parent), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	worseBy := (cm - pm) / pm
	if !lower {
		worseBy = -worseBy
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	switch {
	case pairs >= 10 && float64(wins) >= 0.9*float64(pairs) && better(cm, pm) && math.Abs(cm-pm) > q3-q1:
		return "better"
	case worseBy > bound:
		return "worse"
	case (q3-q1)/pm > bound && !allBetter:
		return "unresolved"
	default:
		return "unchanged"
	}
}
