package lang

import (
	"fmt"
	"strings"
	"testing"
)

const limitsSaxpySrc = `
// a comment that must not survive normalization
kernel saxpy(f32 restrict x[1024], f32 restrict y[1024]) {
    #pragma omp parallel for
    #pragma simd
    for (i = 0; i < 1024; i++) {
        y[i] = 2.5 * x[i] + y[i];   /* trailing comment */
    }
}`

func TestNormalizeStableAcrossFormatting(t *testing.T) {
	c1, _, err := Normalize(limitsSaxpySrc)
	if err != nil {
		t.Fatal(err)
	}
	// Whitespace and comment edits only.
	variant := strings.ReplaceAll(limitsSaxpySrc, "2.5 * x[i]", "2.5*x[ i ]")
	variant = "// another leading comment\n" + variant + "\n\n"
	c2, _, err := Normalize(variant)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Errorf("canonical forms differ across formatting-only edits:\n%s\nvs\n%s", c1, c2)
	}
	// Re-normalizing the canonical form must be a fixed point.
	c3, _, err := Normalize(c1)
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v", err)
	}
	if c3 != c1 {
		t.Errorf("Normalize is not idempotent:\n%s\nvs\n%s", c1, c3)
	}
}

// Semantic pragmas that Print used to omit must distinguish canonical
// forms: two kernels differing only in schedule()/miss() compile (and
// measure) differently, so conflating them would poison the submit memo.
func TestNormalizeDistinguishesSemanticPragmas(t *testing.T) {
	base := `kernel k(f32 x[256]) {
	for (i = 0; i < 256; i++) {
		if (x[i] > 1.5) { x[i] = x[i] - 1; }
	}
}`
	withMiss := strings.Replace(base, "if (", "#pragma miss(0.5)\n\t\tif (", 1)
	withChunk := strings.Replace(base, "for (", "#pragma schedule(dynamic, 16)\n\tfor (", 1)
	cBase, _, err := Normalize(base)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{"miss": withMiss, "schedule": withChunk} {
		c, _, err := Normalize(src)
		if err != nil {
			t.Fatalf("%s variant: %v", name, err)
		}
		if c == cBase {
			t.Errorf("%s pragma lost in normalization; canonical form:\n%s", name, c)
		}
		if c2, _, err := Normalize(c); err != nil || c2 != c {
			t.Errorf("%s canonical form not a fixed point (err %v)", name, err)
		}
	}
}

func TestParseRejectsMalformedSource(t *testing.T) {
	cases := []string{
		"",
		"kernel",
		"kernel broken(",
		"kernel k(f32 x[16]) {",
		"kernel k(f32 x[16]) { x[0] = ; }",
		"kernel k(f32 x[16]) { y[0] = 1; }", // undeclared array
		"kernel k(f32 x[16]) { x[0] = frobnicate(1); }",  // unknown builtin
		"kernel k(f32 x[0]) { x[0] = 1; }",               // zero-length array
		"kernel k(f32 x[16]) { #pragma wat\nx[0] = 1; }", // unknown pragma
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse accepted malformed source %q", src)
		}
	}
}

// nestedLoops builds a kernel with `depth` nested counted loops of
// `trip` iterations each around one assignment.
func nestedLoops(depth, trip int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "kernel deep(f32 x[%d]) {\n", trip)
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&sb, "for (i%d = 0; i%d < %d; i%d++) {\n", i, i, trip, i)
	}
	sb.WriteString("x[0] = x[0] + 1;\n")
	sb.WriteString(strings.Repeat("}\n", depth))
	sb.WriteString("}\n")
	return sb.String()
}

func TestAnalyzeCounts(t *testing.T) {
	_, k, err := Normalize(nestedLoops(3, 10))
	if err != nil {
		t.Fatal(err)
	}
	st := Analyze(k)
	if st.LoopDepth != 3 {
		t.Errorf("LoopDepth = %d, want 3", st.LoopDepth)
	}
	if st.MaxTrip != 10 {
		t.Errorf("MaxTrip = %g, want 10", st.MaxTrip)
	}
	// 3 For statements (1 each) + assignment; work = 3 loop headers
	// entered 1+10+100 times... the assignment alone runs 1000 times.
	if st.Work < 1000 {
		t.Errorf("Work = %g, want >= 1000", st.Work)
	}
	if st.ArrayElems != 10 {
		t.Errorf("ArrayElems = %d, want 10", st.ArrayElems)
	}
	if st.Nodes == 0 {
		t.Error("Nodes = 0")
	}
}

func TestLimitsCheckRejections(t *testing.T) {
	lim := DefaultLimits()
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"loop depth", nestedLoops(lim.MaxLoopDepth+1, 2), "nests loops"},
		{"trip count", fmt.Sprintf("kernel k(f32 x[16]) { for (i = 0; i < %d; i++) { x[0] = x[0] + 1; } }",
			int(lim.MaxTrip)+1), "iterations"},
		{"work", nestedLoops(4, 256), "statement executions"}, // 256^4 ≈ 4.3e9 >> MaxWork
		{"array footprint", fmt.Sprintf("kernel k(f32 x[%d]) { x[0] = 1; }", lim.MaxArrayElems+1),
			"array elements"},
	}
	for _, tc := range cases {
		_, k, err := Normalize(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		err = lim.Check(Analyze(k))
		if err == nil {
			t.Errorf("%s: Check accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestLimitsCheckOversizedAST(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("kernel big(f32 x[16]) {\n")
	for i := 0; i < DefaultLimits().MaxNodes; i++ {
		sb.WriteString("x[0] = x[0] + 1;\n")
	}
	sb.WriteString("}\n")
	_, k, err := Normalize(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	err = DefaultLimits().Check(Analyze(k))
	if err == nil || !strings.Contains(err.Error(), "AST nodes") {
		t.Errorf("oversized AST not rejected: %v", err)
	}
}

func TestLimitsAcceptReasonableKernel(t *testing.T) {
	_, k, err := Normalize(limitsSaxpySrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := DefaultLimits().Check(Analyze(k)); err != nil {
		t.Errorf("saxpy rejected: %v", err)
	}
}
