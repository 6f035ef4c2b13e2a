package main

import "testing"

// The cache model's access paths must leave identical statistics and
// DRAM traffic on the same stream.
func TestCacheProbePathsAgree(t *testing.T) {
	metrics, checks, failures := cacheProbe(1<<13, 1)
	for _, f := range failures {
		t.Error(f)
	}
	if checks != 10 {
		t.Errorf("%d path comparisons, want 10", checks)
	}
	if len(metrics) != 14 {
		t.Errorf("%d probe metrics, want 14", len(metrics))
	}
}
