package cache

// LineCursor carries no state; it remains so that code written against
// the former per-instruction cursor API still compiles.
//
// Deprecated: call AccessCost.
type LineCursor struct{}

// TouchLine is AccessCost(lineAddr, write); the cursor is ignored.
//
// Deprecated: call AccessCost.
func (h *Hierarchy) TouchLine(_ *LineCursor, lineAddr uint64, write bool) (Level, float64) {
	return h.AccessCost(lineAddr, write)
}

// AccessRun is AccessCost over the n ascending lines starting at the
// line-aligned address line0, charging each read miss's stall,
// (latency - l1Lat)/mlp, into *stall in line order.
//
// Deprecated: call AccessCost per line and charge stalls at the caller.
func (h *Hierarchy) AccessRun(line0 uint64, n int, write bool, l1Lat, mlp float64, stall *float64) {
	for k := 0; k < n; k++ {
		lvl, lat := h.AccessCost(line0+uint64(k*h.lineBytes), write)
		if !write && lvl != L1 {
			if pen := lat - l1Lat; pen > 0 {
				*stall += pen / mlp
			}
		}
	}
}
