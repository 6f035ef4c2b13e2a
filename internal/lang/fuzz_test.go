package lang

import (
	"os"
	"path/filepath"
	"testing"
)

// addSubmitSeeds seeds a fuzz target with the example submissions, the
// same untrusted-input shape /v1/submit accepts.
func addSubmitSeeds(f *testing.F) {
	paths, err := filepath.Glob("../../examples/submit/*.kernel")
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no seed kernels under examples/submit")
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	f.Add(limitsSaxpySrc)
}

// FuzzParse checks that the parser rejects malformed source with an error
// and never panics: Parse is the first code that touches a submission.
func FuzzParse(f *testing.F) {
	addSubmitSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		k, err := Parse(src)
		if err == nil && k == nil {
			t.Fatal("Parse returned neither a kernel nor an error")
		}
	})
}

// FuzzNormalize checks the canonical form that keys the submission memo:
// an accepted source's canonical form must itself parse, and normalizing
// it again must change nothing.
func FuzzNormalize(f *testing.F) {
	addSubmitSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		c1, _, err := Normalize(src)
		if err != nil {
			return
		}
		c2, _, err := Normalize(c1)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, c1)
		}
		if c2 != c1 {
			t.Fatalf("Normalize is not idempotent:\n%s\nvs\n%s", c1, c2)
		}
	})
}
