// Package cache implements a multi-level set-associative data-cache
// simulator with LRU replacement, write-back/write-allocate policy, and a
// stride-detecting hardware prefetcher. The execution engine feeds it the
// kernel's actual dynamic address stream; it reports which level served
// each access and accounts DRAM traffic for the bandwidth model.
package cache

import (
	"fmt"
	"math/bits"

	"ninjagap/internal/machine"
)

// Level identifies where an access was served.
type Level int

// Access service levels. Values above L1 correspond to deeper levels; Mem
// means the access went to DRAM.
const (
	L1 Level = iota + 1
	L2
	L3
	Mem Level = 99
)

// String names the level.
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	case Mem:
		return "DRAM"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// lineMeta is the replacement and coherence state of one resident line.
type lineMeta struct {
	lastUse  uint64 // LRU clock
	dirty    bool
	prefetch bool // filled by prefetcher, not yet demanded
}

// level is one cache level stored as a tag array: keys holds every set
// contiguously (set s occupies keys[s*assoc : (s+1)*assoc]), one word per
// way, so a probe scans one 64-128-byte run. A key is the line's tag plus
// one; zero marks an empty way. meta holds the matching ways' state and is
// read only for resident lines, so clearing keys empties the level.
type level struct {
	keys     []uint64
	meta     []lineMeta
	assoc    int
	setMask  uint64
	offBits  uint
	tagShift uint // bits.Len64(setMask), precomputed
	clock    uint64
	stats    LevelStats
	latency  float64
}

// LevelStats aggregates per-level counters.
type LevelStats struct {
	Accesses     uint64
	Hits         uint64
	Misses       uint64
	PrefetchHits uint64 // demand hits on prefetched lines
	Prefetches   uint64 // prefetch fills issued into this level
	Writebacks   uint64 // dirty evictions
}

// MissRate returns misses/accesses (0 when no accesses).
func (s LevelStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

func newLevel(cfg machine.CacheLevel) level {
	numSets := cfg.SizeBytes / (cfg.Assoc * cfg.LineBytes)
	if numSets == 0 || numSets&(numSets-1) != 0 {
		// Round down to a power of two, since sets are indexed by mask.
		// This shrinks a level whose set count is not a power of two:
		// WestmereX980's 12 MiB L3 simulates as 8 MiB, and every recorded
		// number was measured with that geometry.
		numSets = 1 << uint(bits.Len(uint(numSets))-1)
	}
	return level{
		keys:     make([]uint64, numSets*cfg.Assoc),
		meta:     make([]lineMeta, numSets*cfg.Assoc),
		assoc:    cfg.Assoc,
		setMask:  uint64(numSets - 1),
		offBits:  uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		tagShift: uint(bits.Len(uint(numSets - 1))),
		latency:  cfg.Latency,
	}
}

// reset empties every way and zeroes the counters.
func (l *level) reset() {
	clear(l.keys)
	l.clock = 0
	l.stats = LevelStats{}
}

// index returns addr's set and the key its line is stored under.
func (l *level) index(addr uint64) (set, key uint64) {
	lineAddr := addr >> l.offBits
	return lineAddr & l.setMask, lineAddr>>l.tagShift + 1
}

// find returns the way index (into keys and meta) holding key in set, or
// -1 when the line is not resident.
func (l *level) find(set, key uint64) int {
	base := int(set) * l.assoc
	for i, k := range l.keys[base : base+l.assoc] {
		if k == key {
			return base + i
		}
	}
	return -1
}

// use refreshes way w's LRU position.
func (l *level) use(w int) {
	l.clock++
	l.meta[w].lastUse = l.clock
}

// fill inserts addr's line, known not to be resident, into the first empty
// way of its set, else over the least recently used way (lowest index on
// ties). It reports whether a dirty line was evicted (needs write-back).
func (l *level) fill(addr uint64, dirty, prefetch bool) (evictedDirty bool, evictedAddr uint64) {
	set, key := l.index(addr)
	base := int(set) * l.assoc
	ways := l.keys[base : base+l.assoc]
	victim := 0
	for i, k := range ways {
		if k == 0 {
			victim = i
			break
		}
		if l.meta[base+i].lastUse < l.meta[base+victim].lastUse {
			victim = i
		}
	}
	w := base + victim
	if old := l.keys[w]; old != 0 && l.meta[w].dirty {
		evictedDirty = true
		evictedAddr = ((old-1)<<l.tagShift | set) << l.offBits
	}
	l.keys[w] = key
	l.clock++
	l.meta[w] = lineMeta{lastUse: l.clock, dirty: dirty, prefetch: prefetch}
	return evictedDirty, evictedAddr
}

// Hierarchy simulates one hardware thread's view of the cache hierarchy.
// Private levels are exclusive to the owner; the shared LLC is modeled as a
// per-core capacity partition (capacity interference without coherence
// traffic), which is the granularity the paper's working-set arguments use.
type Hierarchy struct {
	levels    []level
	pf        *prefetcher
	lineBytes int
	dramBytes uint64
	memLat    float64
}

// Config controls hierarchy construction.
type Config struct {
	// ShareFactor divides shared-level capacity (number of co-running
	// cores). 0 or 1 means sole occupancy.
	ShareFactor int
	// Prefetch enables the stride prefetcher.
	Prefetch bool
}

// New builds a hierarchy for the given machine model, which must pass
// machine.Validate (power-of-two line size, equal on every level).
func New(m *machine.Machine, cfg Config) *Hierarchy {
	h := &Hierarchy{memLat: m.Mem.Latency, lineBytes: m.Caches[0].LineBytes}
	for _, cl := range m.Caches {
		eff := cl
		if cl.Shared && cfg.ShareFactor > 1 {
			eff.SizeBytes = cl.SizeBytes / cfg.ShareFactor
			if eff.SizeBytes < eff.Assoc*eff.LineBytes {
				eff.SizeBytes = eff.Assoc * eff.LineBytes
			}
		}
		h.levels = append(h.levels, newLevel(eff))
	}
	if cfg.Prefetch {
		h.pf = newPrefetcher(h.lineBytes)
	}
	return h
}

// DRAMBytes returns cumulative DRAM traffic (fills plus write-backs).
func (h *Hierarchy) DRAMBytes() uint64 { return h.dramBytes }

// Stats returns a snapshot of per-level statistics, L1 first.
func (h *Hierarchy) Stats() []LevelStats {
	out := make([]LevelStats, len(h.levels))
	for i := range h.levels {
		out[i] = h.levels[i].stats
	}
	return out
}

// Reset cold-starts the hierarchy for reuse: every level is emptied,
// statistics and DRAM traffic are zeroed, and the prefetcher forgets its
// streams. A reset hierarchy is indistinguishable from a freshly built one.
func (h *Hierarchy) Reset() {
	for i := range h.levels {
		h.levels[i].reset()
	}
	h.dramBytes = 0
	if h.pf != nil {
		h.pf.reset()
	}
}

// AccessCost simulates one demand access to addr (the engine splits vector
// accesses into per-line calls, so an access never crosses a line) and
// returns the level that served it and that level's load-to-use latency.
// write selects store semantics (write-allocate, write-back). The levels
// are probed top down; a hit refreshes LRU, claims a prefetched line and
// dirties on write, and the line is then filled into every level above.
func (h *Hierarchy) AccessCost(addr uint64, write bool) (Level, float64) {
	i := 0
	for ; i < len(h.levels); i++ {
		l := &h.levels[i]
		l.stats.Accesses++
		if w := l.find(l.index(addr)); w >= 0 {
			l.stats.Hits++
			l.use(w)
			m := &l.meta[w]
			if m.prefetch {
				m.prefetch = false // first demand touch claims the line
				l.stats.PrefetchHits++
			}
			if write {
				m.dirty = true
			}
			break
		}
		l.stats.Misses++
	}
	lvl, lat := Mem, h.memLat
	if i < len(h.levels) {
		lvl, lat = Level(i+1), h.levels[i].latency
	} else {
		h.dramBytes += uint64(h.lineBytes)
	}
	if i > 0 {
		h.install(i, addr, write, false)
	}
	if pf := h.pf; pf != nil {
		// A repeated touch of a stream's current line teaches the
		// prefetcher nothing (observe would return at once), so skip it.
		if s := pf.cachedStream(addr >> 12); s == nil || addr>>pf.lineShift != s.lastLine {
			for _, pa := range pf.observe(addr) {
				h.prefetchFill(pa)
			}
		}
	}
	return lvl, lat
}

// install fills addr's line into levels [0, upto), deepest first. dirty
// marks the L1 copy (a store miss); prefetch marks every copy as filled
// by the prefetcher. Evicted dirty lines are written back.
func (h *Hierarchy) install(upto int, addr uint64, dirty, prefetch bool) {
	for i := upto - 1; i >= 0; i-- {
		l := &h.levels[i]
		if prefetch {
			l.stats.Prefetches++
		}
		if evDirty, evAddr := l.fill(addr, dirty && i == 0, prefetch); evDirty {
			l.stats.Writebacks++
			h.writeback(i+1, evAddr)
		}
	}
}

// writeback pushes a dirty line evicted from level from-1 into the levels
// below: a resident copy is refreshed and dirtied; otherwise the line is
// installed dirty without a fetch (victim lines allocate in the next
// level), which may in turn evict a dirty line further down, or to DRAM.
func (h *Hierarchy) writeback(from int, addr uint64) {
	for ; from < len(h.levels); from++ {
		l := &h.levels[from]
		if w := l.find(l.index(addr)); w >= 0 {
			l.use(w)
			l.meta[w].dirty = true
			return
		}
		evDirty, evAddr := l.fill(addr, true, false)
		if !evDirty {
			return
		}
		l.stats.Writebacks++
		addr = evAddr
	}
	h.dramBytes += uint64(h.lineBytes)
}

// prefetchFill brings a line into L1 (and the levels above the one that
// holds it) marked as prefetched; it consumes DRAM bandwidth if the line
// was not cached. The probe refreshes LRU at the level that holds the line
// but neither claims it nor counts demand statistics.
func (h *Hierarchy) prefetchFill(addr uint64) {
	depth := len(h.levels)
	for i := range h.levels {
		l := &h.levels[i]
		if w := l.find(l.index(addr)); w >= 0 {
			l.use(w)
			depth = i
			break
		}
	}
	if depth == len(h.levels) {
		h.dramBytes += uint64(h.lineBytes)
	}
	h.install(depth, addr, false, true)
}
