package gap

// engine-bench: wall-clock throughput of the simulator itself. Every
// other driver reports *simulated* time; this one times the host
// executing the simulation, producing the `wallclock` section of the
// bench snapshot so the engine's own performance is tracked across
// commits alongside the modeled numbers.

import (
	"runtime"
	"time"

	"ninjagap/internal/exec"
	"ninjagap/internal/kernels"
	"ninjagap/internal/machine"
	"ninjagap/internal/report"
)

// engineBenchRounds is how many back-to-back executions each cell is
// timed over. Executions mutate the instance arrays in place (mergesort's
// input is sorted after one run), so every round prepares a fresh
// instance; only the exec.Run call is inside the timed region.
const engineBenchRounds = 3

// EngineBench produces the full bench-export snapshot and extends it
// with a wallclock section: for every benchmark x version cell on the
// Westmere machine it times engineBenchRounds fresh executions of the
// engine and records cells/sec and simulated-instructions/sec. The
// deterministic sections (records, summary) are byte-identical to
// BenchExport's; only the engine-bench driver attaches Wallclock, so
// `bench-export` output stays reproducible.
func EngineBench(cfg Config) (*report.Snapshot, error) {
	snap, err := BenchExport(cfg)
	if err != nil {
		return nil, err
	}

	bs, err := cfg.benches()
	if err != nil {
		return nil, err
	}
	m := machine.WestmereX980()
	vs := kernels.Versions()

	wc := &report.Wallclock{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Summary:    map[string]float64{},
	}
	var totalWall float64
	var totalRuns int
	var totalInstrs, totalFused float64
	for _, b := range bs {
		n := SizeFor(b, cfg)
		for _, v := range vs {
			c := Cell{Bench: b, Version: v, Machine: m, N: n}
			threads := c.threads()
			var wall float64
			var instrs uint64
			// The process-wide fused-dispatch counter, sampled around the
			// timed rounds, yields the cell's exact fused instruction count
			// (engine-bench runs cells serially, so the delta is
			// attributable to this cell alone).
			fused0 := exec.FusedInstrs()
			for r := 0; r < engineBenchRounds; r++ {
				if err := cfg.context().Err(); err != nil {
					return nil, err
				}
				// Preparation (and validation, which is skipped here) are
				// outside the timed region: the measurement is the engine.
				inst, err := b.Prepare(v, m, n)
				if err != nil {
					return nil, err
				}
				start := time.Now()
				res, err := exec.Run(inst.Prog, inst.Arrays, m,
					exec.Options{Threads: threads})
				wall += time.Since(start).Seconds()
				if err != nil {
					return nil, err
				}
				instrs = res.DynInstrs
			}
			den := float64(instrs) * float64(engineBenchRounds)
			var fusedFrac float64
			if den > 0 {
				fusedFrac = float64(exec.FusedInstrs()-fused0) / den
			}
			wc.Records = append(wc.Records, report.WallclockRecord{
				Bench:           b.Name(),
				Version:         v.String(),
				Machine:         m.Name,
				N:               n,
				Runs:            engineBenchRounds,
				WallSeconds:     wall,
				SimInstrs:       instrs,
				CellsPerSec:     float64(engineBenchRounds) / wall,
				SimInstrsPerSec: float64(instrs) * float64(engineBenchRounds) / wall,
				FusedFrac:       fusedFrac,
			})
			totalWall += wall
			totalRuns += engineBenchRounds
			totalInstrs += float64(instrs) * float64(engineBenchRounds)
			totalFused += float64(exec.FusedInstrs() - fused0)
		}
	}
	wc.Summary["cells_per_sec"] = float64(totalRuns) / totalWall
	wc.Summary["sim_instrs_per_sec"] = totalInstrs / totalWall
	if totalInstrs > 0 {
		wc.Summary["fused_frac"] = totalFused / totalInstrs
	}
	snap.Wallclock = wc
	return snap, nil
}
