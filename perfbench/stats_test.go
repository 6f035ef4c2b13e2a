package main

import "testing"

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfSecondsCountsOverlapOnce(t *testing.T) {
	parent := &Span{Start: 0, End: 10e9}
	kids := []*Span{{Start: 1e9, End: 4e9}, {Start: 3e9, End: 5e9}, {Start: 8e9, End: 12e9}}
	if got := selfSeconds(parent, kids); got != 4 {
		t.Errorf("self time %g s, want 4 s", got)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 10, 10}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{7, 13, 8, 12, 10, 9, 11, 6, 14, 10}
	for _, c := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"faster", base, scaled(0.8), "better"},
		{"slower", base, scaled(1.3), "worse"},
		{"same", base, scaled(1.01), "unchanged"},
		{"too noisy to tell", noisy, scaled(0.95), "unresolved"},
	} {
		if got := verdict(c.parent, c.change, true, 0.25); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
