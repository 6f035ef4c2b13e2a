package main

import (
	"reflect"
	"strings"
	"testing"

	"ninjagap/internal/lang"
	"ninjagap/internal/submit"
)

func TestStreamIsIdenticalPerSeed(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for n := 0; n < 3; n++ {
			if !reflect.DeepEqual(genSession(seed, n), genSession(seed, n)) {
				t.Fatalf("seed %d session %d differs between two generations", seed, n)
			}
		}
	}
	if reflect.DeepEqual(genSession(1, 0), genSession(2, 0)) {
		t.Error("seeds 1 and 2 generate the same session")
	}
}

func TestStreamKernelsAdmittedOrOverTheIntendedLimit(t *testing.T) {
	lim := submit.DefaultLimits()
	for seed := int64(1); seed <= 20; seed++ {
		sess := genSession(seed, int(seed%3))
		kinds := map[string]int{}
		for c, reqs := range sess.Clients {
			canon := map[string]string{}
			for i, r := range reqs {
				kinds[r.Kind]++
				if len(r.Source) > lim.MaxSourceBytes {
					t.Fatalf("seed %d client %d request %d: %d source bytes", seed, c, i, len(r.Source))
				}
				can, k, err := lang.Normalize(r.Source)
				if err != nil {
					t.Fatalf("seed %d client %d request %d (%s %s): %v\n%s", seed, c, i, r.Kind, r.Kernel, err, r.Source)
				}
				err = lim.Lang.Check(lang.Analyze(k))
				switch r.Kind {
				case kindOver:
					if err == nil || !strings.Contains(err.Error(), r.Phrase) {
						t.Errorf("over-limit %s: got %v, want the %q limit", r.Kernel, err, r.Phrase)
					}
					continue
				case kindNew:
					if _, dup := canon[r.Kernel]; dup {
						t.Errorf("seed %d: %s submitted new twice", seed, r.Kernel)
					}
					canon[r.Kernel] = can
				case kindResubmit:
					if canon[r.Kernel] != can {
						t.Errorf("seed %d: resubmitted %s does not normalize to its first submission", seed, r.Kernel)
					}
				}
				if err != nil {
					t.Errorf("seed %d %s: %v", seed, r.Kernel, err)
				}
				// All 15 cells are computed on a first submission.
				if w := lang.Analyze(k).Work * 15; w > lim.MaxTotalWork {
					t.Errorf("%s: total work %g over %g", r.Kernel, w, lim.MaxTotalWork)
				}
			}
		}
		if kinds[kindNew] != 18 || kinds[kindResubmit] != 11 || kinds[kindOver] != 1 {
			t.Errorf("seed %d: composition %v, want 18 new, 11 resubmit, 1 over", seed, kinds)
		}
	}
}

func TestEveryOverLimitKindBreaksItsLimit(t *testing.T) {
	lim := lang.DefaultLimits()
	for _, o := range overKinds {
		_, k, err := lang.Normalize(overLimitSource(o.name, style{Indent: "  "}))
		if err != nil {
			t.Fatalf("%s: %v", o.name, err)
		}
		if err := lim.Check(lang.Analyze(k)); err == nil || !strings.Contains(err.Error(), o.phrase) {
			t.Errorf("%s: got %v, want the %q limit", o.name, err, o.phrase)
		}
	}
}

func TestCatalogFootprints(t *testing.T) {
	for _, ck := range catalog() {
		_, k, err := lang.Normalize(ck.source(style{Indent: "  "}))
		if err != nil {
			t.Fatalf("%s: %v", ck.ID(), err)
		}
		bytes := lang.Analyze(k).ArrayElems * 4
		switch {
		case ck.Size == "l1" && bytes > 32<<10,
			ck.Size == "mid" && (bytes <= 32<<10 || bytes > 256<<10),
			ck.Size == "big" && bytes <= 256<<10:
			t.Errorf("%s: %d bytes is outside its footprint class", ck.ID(), bytes)
		}
	}
}
