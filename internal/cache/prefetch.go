package cache

import "math/bits"

// trackerCap is the stream-tracker capacity (entries, like real streamers).
const trackerCap = 32

// prefetchDegree is how many lines ahead of a confirmed stream the
// prefetcher runs.
const prefetchDegree = 2

// prefetcher is a table-based stride prefetcher in the style of the L1/L2
// streamers on the modeled parts: it tracks access streams per 4 KiB page,
// detects a constant line-granular stride after two confirmations, and then
// runs prefetchDegree lines ahead of the demand stream.
//
// The tracker is a fixed array in round-robin insertion order, which with a
// full table is exactly FIFO eviction: the slot inserted longest ago is the
// next victim. A map held the same entries in earlier versions; the array
// removes the map and per-stream allocations from the demand path without
// changing which streams exist or when they are evicted.
type prefetcher struct {
	lineShift uint // log2 of the line size

	pages   [trackerCap]uint64 // page number per live slot
	streams [trackerCap]stream
	live    int // slots 0..live-1 hold streams (eviction overwrites, never shrinks)
	next    int // round-robin insertion cursor = FIFO victim when full

	// Hot-path caches: demand streams stay on a handful of pages (one per
	// live array) for many accesses, so a small direct-mapped cache of
	// recently resolved streams short-circuits the tracker scan even when a
	// kernel interleaves touches to several arrays; buf backs the returned
	// prefetch list (consumed before the next observe call).
	lastPages   [streamSlots]uint64
	lastStreams [streamSlots]*stream
	buf         [prefetchDegree]uint64
}

// streamSlots sizes the resolved-stream cache (must be a power of two).
// Sixty-four slots cover every live stream of the widest shipped kernels —
// including the pointer-chasing ones, where a tree descent touches a dozen
// pages per query and a 16-slot cache thrashed on page-number conflicts —
// without tracker scans on the demand path. The cache is transparent: it
// mirrors entries in the tracker table, so its size changes wall-clock only.
const streamSlots = 64

type stream struct {
	lastLine  uint64
	stride    int64 // in lines
	confirmed int
}

func newPrefetcher(lineBytes int) *prefetcher {
	return &prefetcher{lineShift: uint(bits.TrailingZeros(uint(lineBytes)))}
}

// reset forgets all streams (used when a pooled hierarchy is recycled).
func (p *prefetcher) reset() {
	p.live, p.next = 0, 0
	p.lastStreams = [streamSlots]*stream{}
}

// cachedStream returns the resolved stream for a page if it is in the
// direct-mapped cache, else nil.
func (p *prefetcher) cachedStream(page uint64) *stream {
	slot := page & (streamSlots - 1)
	if s := p.lastStreams[slot]; s != nil && p.lastPages[slot] == page {
		return s
	}
	return nil
}

// cacheStream records a resolved stream in the direct-mapped cache.
func (p *prefetcher) cacheStream(page uint64, s *stream) {
	p.lastPages[page&(streamSlots-1)], p.lastStreams[page&(streamSlots-1)] = page, s
}

// observe records a demand access and returns the addresses to prefetch.
// The returned slice is reused by the next call.
func (p *prefetcher) observe(addr uint64) []uint64 {
	page := addr >> 12
	lineAddr := addr >> p.lineShift
	s := p.cachedStream(page)
	if s == nil {
		for i := 0; i < p.live; i++ {
			if p.pages[i] == page {
				s = &p.streams[i]
				p.cacheStream(page, s)
				break
			}
		}
		if s == nil {
			// Install a fresh stream, evicting the FIFO victim when full.
			i := p.next
			if p.live < trackerCap {
				p.live++
			} else {
				// The evicted page must leave the resolved-stream cache:
				// its slot's struct is about to be reused for the new page.
				old := p.pages[i]
				slot := old & (streamSlots - 1)
				if p.lastStreams[slot] != nil && p.lastPages[slot] == old {
					p.lastStreams[slot] = nil
				}
			}
			p.next++
			if p.next == trackerCap {
				p.next = 0
			}
			p.pages[i] = page
			p.streams[i] = stream{lastLine: lineAddr}
			p.cacheStream(page, &p.streams[i])
			return nil
		}
	}
	d := int64(lineAddr) - int64(s.lastLine)
	s.lastLine = lineAddr
	if d == 0 {
		return nil // same line, no new information
	}
	if d == s.stride && d != 0 {
		if s.confirmed < 8 {
			s.confirmed++
		}
	} else {
		s.stride = d
		s.confirmed = 0
		return nil
	}
	if s.confirmed < 1 {
		return nil
	}
	// Confirmed stream: prefetch degree lines ahead. Real streamers stop
	// at page boundaries; we mirror that.
	out := p.buf[:0]
	for i := 1; i <= prefetchDegree; i++ {
		next := int64(lineAddr) + int64(i)*s.stride
		if next < 0 {
			break
		}
		na := uint64(next) << p.lineShift
		if na>>12 != page {
			break
		}
		out = append(out, na)
	}
	return out
}
