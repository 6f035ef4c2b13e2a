package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ninjagap/internal/machine"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_streams.json")

const goldenPath = "testdata/golden_streams.json"

// goldenAccess is one demand access of a canned stream.
type goldenAccess struct {
	addr  uint64
	write bool
}

// goldenStreams builds the canned streams, each seeded and of n accesses:
//   - unit: 4-byte elements in ascending order, sixteen touches per line;
//   - stride64: one touch per 64-byte line, ascending;
//   - random: uniform byte addresses in a 64 MiB region;
//   - chase: a pointer chase, a random cyclic order over the lines of a
//     4 MiB region;
//   - mixed: random lines of a 48 KiB, a 384 KiB or a 16 MiB region (one
//     of the three at random, all starting at the same address, so each
//     level serves hits), one in three a store, so dirty lines are written
//     back through every level to DRAM;
//   - runs: ascending runs of 4 to 63 lines from random lines of a 2 MiB
//     region, each run all loads or all stores, so prefetched lines are
//     re-probed, claimed and evicted.
func goldenStreams(n int) map[string][]goldenAccess {
	r := rand.New(rand.NewSource(7))
	unit := make([]goldenAccess, n)
	stride := make([]goldenAccess, n)
	random := make([]goldenAccess, n)
	mixed := make([]goldenAccess, n)
	regions := []int{48 << 10, 384 << 10, 16 << 20}
	for i := 0; i < n; i++ {
		unit[i] = goldenAccess{addr: 1<<20 + uint64(i*4)}
		stride[i] = goldenAccess{addr: 1<<20 + uint64(i*64)}
		random[i] = goldenAccess{addr: uint64(r.Intn(64 << 20))}
		region := regions[r.Intn(len(regions))]
		mixed[i] = goldenAccess{addr: uint64(r.Intn(region/64)) * 64, write: r.Intn(3) == 0}
	}
	runs := make([]goldenAccess, 0, n)
	for len(runs) < n {
		line, k, write := r.Intn(2<<20/64), 4+r.Intn(60), r.Intn(2) == 0
		for j := 0; j < k && len(runs) < n; j++ {
			runs = append(runs, goldenAccess{addr: uint64(line+j) * 64, write: write})
		}
	}
	nodes := 4 << 20 / 64
	perm := r.Perm(nodes)
	next := make([]int, nodes)
	for i := range perm {
		next[perm[i]] = perm[(i+1)%nodes]
	}
	chase := make([]goldenAccess, n)
	at := perm[0]
	for i := range chase {
		chase[i] = goldenAccess{addr: uint64(at) * 64}
		at = next[at]
	}
	return map[string][]goldenAccess{
		"unit": unit, "stride64": stride, "random": random, "chase": chase, "mixed": mixed, "runs": runs,
	}
}

// streamDigest runs one stream through h and hashes every access's
// (level, latency) pair, then the final Stats() and DRAMBytes().
func streamDigest(h *Hierarchy, s []goldenAccess) string {
	sum := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		sum.Write(buf[:])
	}
	for _, a := range s {
		lvl, lat := h.AccessCost(a.addr, a.write)
		put(uint64(lvl))
		put(math.Float64bits(lat))
	}
	for _, st := range h.Stats() {
		for _, v := range []uint64{st.Accesses, st.Hits, st.Misses, st.PrefetchHits, st.Prefetches, st.Writebacks} {
			put(v)
		}
	}
	put(h.DRAMBytes())
	return hex.EncodeToString(sum.Sum(nil))
}

// goldenDigests computes the digest of every stream under every
// configuration: prefetch on and off, sole occupancy and a six-way shared
// last level, on a three-level (WestmereX980) and a two-level
// (KnightsFerry) hierarchy.
func goldenDigests() map[string]string {
	out := map[string]string{}
	streams := goldenStreams(1 << 17)
	for _, m := range []*machine.Machine{machine.WestmereX980(), machine.KnightsFerry()} {
		for _, share := range []int{1, 6} {
			for _, pf := range []bool{false, true} {
				cfg := Config{ShareFactor: share, Prefetch: pf}
				for name, s := range streams {
					key := fmt.Sprintf("%s/share%d/prefetch=%t/%s", m.Name, share, pf, name)
					out[key] = streamDigest(New(m, cfg), s)
				}
			}
		}
	}
	return out
}

// TestGoldenStreams pins the simulator's observable behaviour access by
// access: a change to LRU order, victim choice, write-back routing or
// prefetch order changes a digest here. Regenerate with -update only for
// an intended change to the cache model.
func TestGoldenStreams(t *testing.T) {
	got := goldenDigests()
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%d golden digests recorded, %d computed", len(want), len(got))
	}
	for key, d := range got {
		if want[key] != d {
			t.Errorf("%s: digest %s, recorded %s", key, d, want[key])
		}
	}
}

// TestResetMatchesFresh checks that a reused hierarchy starts cold: after
// Reset, a stream must leave exactly the digest it leaves on a new one.
func TestResetMatchesFresh(t *testing.T) {
	streams := goldenStreams(1 << 15)
	for _, m := range []*machine.Machine{machine.WestmereX980(), machine.KnightsFerry()} {
		cfg := Config{ShareFactor: 6, Prefetch: true}
		reused := New(m, cfg)
		streamDigest(reused, streams["mixed"])
		reused.Reset()
		if got, want := streamDigest(reused, streams["runs"]), streamDigest(New(m, cfg), streams["runs"]); got != want {
			t.Errorf("%s: digest after Reset %s, fresh %s", m.Name, got, want)
		}
	}
}
