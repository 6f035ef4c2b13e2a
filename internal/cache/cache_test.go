package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ninjagap/internal/machine"
)

func westmere(t *testing.T, cfg Config) *Hierarchy {
	t.Helper()
	return New(machine.WestmereX980(), cfg)
}

func TestColdMissThenHit(t *testing.T) {
	h := westmere(t, Config{})
	lvl, lat := h.AccessCost(0x1000, false)
	if lvl != Mem || lat != machine.WestmereX980().Mem.Latency {
		t.Fatalf("cold access served from %v at %g cycles, want DRAM", lvl, lat)
	}
	if h.DRAMBytes() != 64 {
		t.Fatalf("cold access DRAM bytes = %d, want 64", h.DRAMBytes())
	}
	if lvl, _ = h.AccessCost(0x1000, false); lvl != L1 {
		t.Fatalf("second access served from %v, want L1", lvl)
	}
	if lvl, _ = h.AccessCost(0x1020, false); lvl != L1 { // same 64B line
		t.Fatalf("same-line access served from %v, want L1", lvl)
	}
}

func TestL1EvictionFallsToL2(t *testing.T) {
	h := westmere(t, Config{})
	// L1: 32 KiB, 8-way, 64B lines -> 64 sets. Addresses mapping to set 0
	// are multiples of 64*64 = 4096.
	const setStride = 64 * 64
	for i := 0; i < 9; i++ { // 9 lines into an 8-way set: one eviction
		h.AccessCost(uint64(i*setStride), false)
	}
	if lvl, _ := h.AccessCost(0, false); lvl != L2 { // first line was LRU-evicted from L1
		t.Fatalf("evicted line served from %v, want L2", lvl)
	}
}

func TestLRUOrder(t *testing.T) {
	h := westmere(t, Config{})
	const setStride = 64 * 64
	for i := 0; i < 8; i++ {
		h.AccessCost(uint64(i*setStride), false)
	}
	h.AccessCost(0, false) // touch line 0: now line 1 is LRU
	h.AccessCost(uint64(8*setStride), false)
	if lvl, _ := h.AccessCost(0, false); lvl != L1 {
		t.Errorf("recently used line evicted; served from %v", lvl)
	}
	if lvl, _ := h.AccessCost(uint64(setStride), false); lvl == L1 {
		t.Errorf("LRU line should have been evicted from L1")
	}
}

func TestWritebackTraffic(t *testing.T) {
	h := westmere(t, Config{})
	const setStride = 64 * 64
	// Dirty 8 lines in one L1 set, then stream enough lines through the
	// whole hierarchy to force the dirty data to DRAM.
	for i := 0; i < 8; i++ {
		h.AccessCost(uint64(i*setStride), true)
	}
	before := h.DRAMBytes()
	// Stream 2x the L3 partition size.
	total := 2 * 12 << 20
	for a := 1 << 28; a < 1<<28+total; a += 64 {
		h.AccessCost(uint64(a), false)
	}
	wbs := uint64(0)
	for _, s := range h.Stats() {
		wbs += s.Writebacks
	}
	if wbs == 0 {
		t.Error("no writebacks recorded after dirty evictions")
	}
	if h.DRAMBytes() <= before {
		t.Error("DRAM traffic did not grow during streaming")
	}
}

func TestStorePromotesDirty(t *testing.T) {
	h := westmere(t, Config{})
	h.AccessCost(0x40, false) // clean fill
	h.AccessCost(0x40, true)  // store hit marks dirty
	const setStride = 64 * 64
	for i := 1; i <= 8; i++ {
		h.AccessCost(uint64(0x40+i*setStride), false)
	}
	wb := h.Stats()[0].Writebacks
	if wb == 0 {
		t.Error("store-dirtied line eviction produced no writeback")
	}
}

func TestSharedLLCPartitioning(t *testing.T) {
	whole := westmere(t, Config{})
	shared := westmere(t, Config{ShareFactor: 6})
	// Working set of 4 MiB: fits in a 12 MiB sole-occupancy L3 but not in
	// a 2 MiB partition.
	ws := 4 << 20
	run := func(h *Hierarchy) float64 {
		for pass := 0; pass < 3; pass++ {
			for a := 0; a < ws; a += 64 {
				h.AccessCost(uint64(a), false)
			}
		}
		st := h.Stats()
		last := st[len(st)-1]
		return last.MissRate()
	}
	mrWhole := run(whole)
	mrShared := run(shared)
	if mrShared <= mrWhole {
		t.Errorf("partitioned LLC miss rate %.3f should exceed sole-occupancy %.3f", mrShared, mrWhole)
	}
}

func TestPrefetcherCoversUnitStride(t *testing.T) {
	off := westmere(t, Config{})
	on := westmere(t, Config{Prefetch: true})
	stream := func(h *Hierarchy) (demandMisses uint64) {
		for a := 0; a < 1<<20; a += 4 {
			h.AccessCost(uint64(a), false)
		}
		st := h.Stats()
		return st[len(st)-1].Misses
	}
	missOff := stream(off)
	missOn := stream(on)
	if missOn >= missOff {
		t.Errorf("prefetcher did not reduce demand misses: on=%d off=%d", missOn, missOff)
	}
	// Most lines of a unit-stride stream should be prefetch-covered.
	st := on.Stats()
	if st[0].PrefetchHits == 0 {
		t.Error("no prefetch hits recorded for unit-stride stream")
	}
}

func TestPrefetcherIgnoresRandom(t *testing.T) {
	h := westmere(t, Config{Prefetch: true})
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		h.AccessCost(uint64(rng.Intn(1<<26))&^63, false)
	}
	st := h.Stats()
	if st[0].Prefetches > st[0].Accesses/4 {
		t.Errorf("prefetcher issued %d prefetches on random stream (%d accesses)",
			st[0].Prefetches, st[0].Accesses)
	}
}

func TestPrefetcherDetectsNegativeStride(t *testing.T) {
	h := westmere(t, Config{Prefetch: true})
	base := uint64(1 << 20)
	for i := 0; i < 64; i++ {
		h.AccessCost(base-uint64(i*64), false)
	}
	if h.Stats()[0].Prefetches == 0 {
		t.Error("no prefetches issued for descending stream")
	}
}

// Property: hits + misses == accesses at every level, for any access stream.
func TestStatsConservationProperty(t *testing.T) {
	f := func(addrs []uint32, writes []bool) bool {
		h := New(machine.WestmereX980(), Config{Prefetch: len(addrs)%2 == 0})
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			h.AccessCost(uint64(a), w)
		}
		for _, s := range h.Stats() {
			if s.Hits+s.Misses != s.Accesses {
				return false
			}
			if s.Hits < s.PrefetchHits {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the simulator is deterministic — same stream, same stats.
func TestDeterminismProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		run := func() []LevelStats {
			h := New(machine.WestmereX980(), Config{Prefetch: true})
			for _, a := range addrs {
				h.AccessCost(uint64(a)*64, a%3 == 0)
			}
			return h.Stats()
		}
		a, b := run(), run()
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: DRAM traffic for a cold single-pass streaming read equals the
// number of distinct lines touched times the line size (with prefetching
// off, no write-backs).
func TestStreamingTrafficExact(t *testing.T) {
	h := westmere(t, Config{})
	lines := 10000
	for i := 0; i < lines; i++ {
		h.AccessCost(uint64(i*64), false)
	}
	want := uint64(lines * 64)
	if got := h.DRAMBytes(); got != want {
		t.Errorf("streaming DRAM bytes = %d, want %d", got, want)
	}
}

func TestMissRateZeroOnEmpty(t *testing.T) {
	var s LevelStats
	if s.MissRate() != 0 {
		t.Error("empty stats should report zero miss rate")
	}
}

func TestLevelString(t *testing.T) {
	if L1.String() != "L1" || Mem.String() != "DRAM" {
		t.Errorf("level names wrong: %s %s", L1, Mem)
	}
	if Level(7).String() == "" {
		t.Error("unknown level should still stringify")
	}
}

func BenchmarkAccessCostHit(b *testing.B) {
	h := New(machine.WestmereX980(), Config{})
	h.AccessCost(0, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AccessCost(0, false)
	}
}

func BenchmarkAccessCostStream(b *testing.B) {
	h := New(machine.WestmereX980(), Config{Prefetch: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AccessCost(uint64(i*4), false)
	}
}
