package main

// The seeded POST /v1/submit stream. Kernels come from a fixed catalog
// (six shapes x three footprints x two constant variants) so that the
// body of every first submission can be checked against a digest
// recorded once. Every session submits each shape at each footprint; the
// seed picks the constant variants, the order, the formatting, which
// kernels are resubmitted, and which limit the over-limit request breaks.
//
// `#pragma omp parallel for` appears only on loops whose iterations write
// disjoint elements: a racy parallel loop would make results depend on
// host scheduling.

import (
	"fmt"
	"math/rand"
	"strings"
)

// Request kinds.
const (
	kindNew      = "new"      // first submission of a catalog kernel
	kindResubmit = "resubmit" // the same kernel, reformatted: a memo hit
	kindOver     = "over"     // breaks one lang limit: must get 422
)

var shapes = []string{"unit", "stride", "stencil2d", "gather", "recurrence", "select"}

// sizes are the footprint classes: L1-resident, L2-sized, and beyond
// KnightsFerry's 256 KiB last-level cache.
var sizes = []string{"l1", "mid", "big"}

// overKinds are the lang limits the over-limit requests break, each with
// the phrase lang.Limits.Check uses for it.
var overKinds = []struct{ name, phrase string }{
	{"nodes", "AST nodes"},
	{"depth", "nests loops"},
	{"elems", "array elements"},
	{"trip", "iterations"},
	{"work", "statement executions"},
}

// catalogKernel names one kernel of the catalog.
type catalogKernel struct {
	Shape, Size string
	Variant     int // 0 or 1: picks the constants
}

// ID is the kernel's catalog key (also its digest key).
func (k catalogKernel) ID() string { return fmt.Sprintf("%s_%s_%d", k.Shape, k.Size, k.Variant) }

// catalog lists every admitted kernel the stream can submit.
func catalog() []catalogKernel {
	var out []catalogKernel
	for _, sh := range shapes {
		for _, sz := range sizes {
			for v := 0; v < 2; v++ {
				out = append(out, catalogKernel{sh, sz, v})
			}
		}
	}
	return out
}

// style is the formatting of one submission. Two styles of one kernel
// normalize to the same canonical source.
type style struct {
	Indent  string
	Comment string // "" for none
	Blank   bool   // blank line after each statement
	Compact bool   // no spaces around binary operators
}

func randomStyle(r *rand.Rand) style {
	words := []string{"kernel", "draft", "retry", "tuned", "v2", "from", "notebook", "check", "again", "loop"}
	c := ""
	if r.Intn(4) != 0 {
		c = words[r.Intn(len(words))] + " " + words[r.Intn(len(words))] + fmt.Sprintf(" %d", r.Intn(1000))
	}
	return style{
		Indent:  []string{"  ", "    ", "\t"}[r.Intn(3)],
		Comment: c,
		Blank:   r.Intn(2) == 0,
		Compact: r.Intn(2) == 0,
	}
}

// render prints a kernel from its header and body lines (one statement
// or brace per line, nesting marked by leading '>' characters).
func (st style) render(header string, body []string) string {
	var sb strings.Builder
	if st.Comment != "" {
		sb.WriteString("// " + st.Comment + "\n")
	}
	sb.WriteString(header + " {\n")
	for _, l := range body {
		depth := 1
		for strings.HasPrefix(l, ">") {
			depth++
			l = l[1:]
		}
		if st.Compact {
			for _, op := range []string{" + ", " - ", " * ", " > "} {
				l = strings.ReplaceAll(l, op, strings.TrimSpace(op))
			}
		}
		sb.WriteString(strings.Repeat(st.Indent, depth) + l + "\n")
		if st.Blank && strings.HasSuffix(l, ";") {
			sb.WriteString("\n")
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// source renders the catalog kernel k in style st.
func (k catalogKernel) source(st style) string {
	c := []string{"2.5", "0.75"}[k.Variant]
	t := []string{"1.25", "1.75"}[k.Variant]
	idx := map[string]int{"l1": 0, "mid": 1, "big": 2}[k.Size]
	name := k.Shape + "_" + k.Size
	pick := func(v ...int) int { return v[idx] }
	switch k.Shape {
	case "unit":
		n := pick(1024, 16384, 131072)
		return st.render(fmt.Sprintf("kernel %s(f32 restrict x[%d], f32 restrict y[%d])", name, n, n), []string{
			"#pragma omp parallel for",
			"#pragma simd",
			fmt.Sprintf("for (i = 0; i < %d; i++) {", n),
			fmt.Sprintf(">y[i] = %s * x[i] + y[i];", c),
			"}",
		})
	case "stride":
		n := pick(128, 2048, 16384)
		return st.render(fmt.Sprintf("kernel %s(f32 restrict x[%d], f32 restrict y[%d])", name, n*16, n), []string{
			"#pragma omp parallel for",
			fmt.Sprintf("for (i = 0; i < %d; i++) {", n),
			fmt.Sprintf(">y[i] = x[i * 16] * %s + 1.0;", c),
			"}",
		})
	case "stencil2d":
		w := pick(32, 128, 384)
		return st.render(fmt.Sprintf("kernel %s(f32 restrict a[%d], f32 restrict b[%d])", name, w*w, w*w), []string{
			"#pragma omp parallel for",
			fmt.Sprintf("for (r = 1; r < %d; r++) {", w-1),
			fmt.Sprintf(">for (c = 1; c < %d; c++) {", w-1),
			fmt.Sprintf(">>b[r * %[1]d + c] = %[2]s * (a[r * %[1]d + c] + a[r * %[1]d + c - 1] + a[r * %[1]d + c + 1] + a[r * %[1]d + c - %[1]d] + a[r * %[1]d + c + %[1]d]);", w, c),
			">}",
			"}",
		})
	case "gather":
		n := pick(512, 10240, 98304)
		return st.render(fmt.Sprintf("kernel %s(f32 restrict idx[%d], f32 restrict x[%d], f32 restrict y[%d])", name, n, n, n), []string{
			"#pragma omp parallel for",
			fmt.Sprintf("for (i = 0; i < %d; i++) {", n),
			fmt.Sprintf(">y[i] = x[floor((idx[i] - 1.0) * %d.0)] * %s;", n-1, c),
			"}",
		})
	case "recurrence":
		n := pick(1024, 16384, 131072)
		return st.render(fmt.Sprintf("kernel %s(f32 restrict x[%d], f32 restrict y[%d])", name, n, n), []string{
			fmt.Sprintf("for (i = 1; i < %d; i++) {", n),
			fmt.Sprintf(">y[i] = y[i - 1] * %s + x[i];", []string{"0.5", "0.25"}[k.Variant]),
			"}",
		})
	case "select":
		n := pick(1024, 16384, 131072)
		return st.render(fmt.Sprintf("kernel %s(f32 restrict x[%d], f32 restrict y[%d])", name, n, n), []string{
			"#pragma omp parallel for",
			fmt.Sprintf("for (i = 0; i < %d; i++) {", n),
			fmt.Sprintf(">if (x[i] > %s) {", t),
			fmt.Sprintf(">>y[i] = x[i] * %s;", c),
			">} else {",
			">>y[i] = x[i] - 1.0;",
			">}",
			"}",
		})
	}
	panic("unknown shape " + k.Shape)
}

// overLimitSource renders a kernel that breaks exactly the named limit
// of lang.DefaultLimits (Limits.Check tests the limits in a fixed order,
// so each kernel stays inside every limit checked before its own).
func overLimitSource(kind string, st style) string {
	switch kind {
	case "nodes":
		terms := make([]string, 2100)
		for i := range terms {
			terms[i] = fmt.Sprintf("x[%d]", i%64)
		}
		return st.render("kernel wide(f32 x[64], f32 y[64])", []string{"y[0] = " + strings.Join(terms, " + ") + ";"})
	case "depth":
		body := []string{}
		for d, v := range []string{"a", "b", "c", "d", "e"} {
			body = append(body, strings.Repeat(">", d)+fmt.Sprintf("for (%s = 0; %s < 2; %s++) {", v, v, v))
		}
		body = append(body, ">>>>>x[0] = x[0] + 1.0;")
		for d := 4; d >= 0; d-- {
			body = append(body, strings.Repeat(">", d)+"}")
		}
		return st.render("kernel deep(f32 x[16])", body)
	case "elems":
		return st.render("kernel huge(f32 x[4194305])", []string{"x[0] = 1.0;"})
	case "trip":
		return st.render("kernel long(f32 x[16])", []string{
			"for (i = 0; i < 2000000; i++) {", ">x[0] = x[0] + 1.0;", "}",
		})
	case "work":
		return st.render("kernel heavy(f32 x[16])", []string{
			"for (i = 0; i < 1024; i++) {", ">for (j = 0; j < 20000; j++) {", ">>x[0] = x[0] + 1.0;", ">}", "}",
		})
	}
	panic("unknown limit " + kind)
}

// submitReq is one request of a client's stream.
type submitReq struct {
	Kind   string
	Kernel string // catalog ID (new, resubmit) or limit name (over)
	Source string
	Phrase string // over: the phrase the 422 message must contain
}

// session is the traffic one fresh ninjagapd serves: one request list
// per closed-loop client.
type session struct {
	Clients [2][]submitReq
}

// Per-session composition: 18 new kernels, 11 resubmissions and one
// over-limit kernel — 60/37/3 percent of 30 requests. Resubmissions stay
// with the client that made the first submission, so each is a memo hit
// by construction; the hit share (11 of 29 admitted) stays well away
// from half, so the median request is a miss.
var resubmits = [2]int{6, 5}
var overs = [2]int{0, 1}

// clientShapes splits the shapes between the two clients so that their
// work is balanced: the big gather, unit and stride kernels together
// cost about as much host time as the big stencil, recurrence and select.
var clientShapes = [2][]string{{"gather", "unit", "stride"}, {"stencil2d", "recurrence", "select"}}

// genSession builds session number n of the stream for seed. Every
// session submits each shape at each footprint once, so sessions carry
// the same work whatever the seed; the seed picks the constant variants,
// the order, the formatting, the resubmitted kernels and the broken
// limit.
func genSession(seed int64, n int) session {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(n)))
	var news [2][]catalogKernel
	for c, shs := range clientShapes {
		for _, sh := range shs {
			for _, sz := range sizes {
				news[c] = append(news[c], catalogKernel{sh, sz, r.Intn(2)})
			}
		}
	}
	var s session
	for c := 0; c < 2; c++ {
		r.Shuffle(len(news[c]), func(i, j int) { news[c][i], news[c][j] = news[c][j], news[c][i] })
		kinds := []string{}
		for i := 0; i < resubmits[c]; i++ {
			kinds = append(kinds, kindResubmit)
		}
		for i := 0; i < overs[c]; i++ {
			kinds = append(kinds, kindOver)
		}
		for range news[c] {
			kinds = append(kinds, kindNew)
		}
		r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		// A resubmission needs an earlier first submission: move the
		// first new request to the front.
		for i, k := range kinds {
			if k == kindNew {
				kinds[0], kinds[i] = kinds[i], kinds[0]
				break
			}
		}
		var sent []catalogKernel
		next := 0
		for _, k := range kinds {
			switch k {
			case kindNew:
				ck := news[c][next]
				next++
				sent = append(sent, ck)
				s.Clients[c] = append(s.Clients[c], submitReq{Kind: k, Kernel: ck.ID(), Source: ck.source(randomStyle(r))})
			case kindResubmit:
				ck := sent[r.Intn(len(sent))]
				s.Clients[c] = append(s.Clients[c], submitReq{Kind: k, Kernel: ck.ID(), Source: ck.source(randomStyle(r))})
			case kindOver:
				o := overKinds[r.Intn(len(overKinds))]
				s.Clients[c] = append(s.Clients[c], submitReq{Kind: k, Kernel: o.name, Source: overLimitSource(o.name, randomStyle(r)), Phrase: o.phrase})
			}
		}
	}
	return s
}
