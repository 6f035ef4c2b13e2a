// Command perfbench is the repository benchmark: it runs one workload
// (repro, irregular or submit) for a fixed time, checks every output,
// and prints the end-to-end metrics — or, with --trace 1, the per-layer
// metrics of one traced pass. Every pass runs in a fresh child process
// of this binary, so memo caches start cold and CPU time and peak
// memory are the pass's own. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload repro --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh --compare parent.jsonl change.jsonl
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

//go:embed testdata/irregular_digests.json
var irregularDigestsJSON []byte

//go:embed testdata/submit_digests.json
var submitDigestsJSON []byte

func main() {
	workload := flag.String("workload", "", "repro, irregular, submit, or all three in turn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1: one traced pass, per-layer metrics")
	record := flag.String("record", "", "append the result to this JSONL file (for --compare)")
	compareMode := flag.Bool("compare", false, "compare two recorded result files: --compare PARENT CHANGE")
	child := flag.String("child", "", "internal: run one pass (pass) or set-up only (setup)")
	pass := flag.Int("pass", 0, "internal: pass number")
	scale := flag.Float64("scale", 1, "internal: repro problem scale")
	traceOut := flag.String("trace-out", "", "internal: span file of a traced pass")
	work := flag.String("work", "", "internal: scratch directory")
	recordDigests := flag.String("record-digests", "", "write the output digests of this commit into DIR")
	flag.Parse()

	var err error
	switch {
	case *compareMode:
		if flag.NArg() != 2 {
			err = errors.New("--compare needs PARENT and CHANGE result files")
			break
		}
		err = compare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	case *recordDigests != "":
		err = writeDigests(*recordDigests)
	case *child != "":
		err = runChild(*child, *workload, *seed, *pass, *scale, *traceOut, *work)
	case *workload == "all":
		for _, w := range workloads {
			if err = runHarness(w, *seed, *seconds, *trace == 1, *record); err != nil {
				break
			}
		}
	default:
		err = runHarness(*workload, *seed, *seconds, *trace == 1, *record)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

var workloads = []string{"repro", "irregular", "submit"}

// loadDigests decodes the recorded output digests.
func loadDigests() (irregular, submitted map[string]string, err error) {
	if err := json.Unmarshal(irregularDigestsJSON, &irregular); err != nil {
		return nil, nil, fmt.Errorf("irregular digests: %w", err)
	}
	if err := json.Unmarshal(submitDigestsJSON, &submitted); err != nil {
		return nil, nil, fmt.Errorf("submit digests: %w", err)
	}
	if len(irregular) == 0 || len(submitted) == 0 {
		return nil, nil, errors.New("no recorded digests: run with --record-digests first")
	}
	return irregular, submitted, nil
}

// runChild is one pass (or one set-up) in a fresh process. It prints a
// passResult JSON line; a traced pass also writes its spans.
func runChild(mode, workload string, seed int64, n int, scale float64, traceOut, work string) error {
	var rec *Recorder
	if traceOut != "" {
		rec = NewRecorder()
	}
	irregular, submitted, err := loadDigests()
	if err != nil {
		return err
	}
	var p *passResult
	switch workload {
	case "repro":
		var want []byte
		if scale == 1 {
			if want, err = os.ReadFile("experiments_output.txt"); err != nil {
				return err
			}
		}
		if mode == "setup" {
			p = &passResult{}
			p.ready()
			break
		}
		p, _ = reproPass(scale, want, rec)
	case "irregular":
		if mode == "setup" {
			p = &passResult{}
			p.ready()
			break
		}
		p, _ = irregularPass(seed, irregular, rec)
	case "submit":
		if mode == "setup" {
			p, err = submitSetup(work)
			break
		}
		p, err = submitPass(seed, n, work, submitted, rec)
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return err
	}
	if rec != nil {
		if err := rec.Write(traceOut); err != nil {
			return err
		}
	}
	b, err := json.Marshal(p)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// submitSetup brings the in-process server up exactly as a pass does,
// reports ready, and shuts it down.
func submitSetup(work string) (*passResult, error) {
	dir, err := os.MkdirTemp(work, "submit-cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv, err := startSubmitServer(dir)
	if err != nil {
		return nil, err
	}
	p := &passResult{}
	p.ready()
	srv.close()
	return p, nil
}

// writeDigests records the digests of every irregular cell result and
// every catalog kernel's submission response, as this commit computes
// them. Later commits must reproduce them exactly.
func writeDigests(dir string) error {
	_, irregular := irregularPass(1, nil, nil)
	submitted, err := catalogDigests()
	if err != nil {
		return err
	}
	for name, m := range map[string]map[string]string{
		"irregular_digests.json": irregular, "submit_digests.json": submitted,
	} {
		b, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
