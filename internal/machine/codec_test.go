package machine

import (
	"strings"
	"testing"
)

// TestModelRoundTripPresets checks every preset survives the wire codec
// with its fingerprint intact — the invariant the coordinator's cell
// keys depend on.
func TestModelRoundTripPresets(t *testing.T) {
	for _, m := range All() {
		b, err := MarshalModel(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		got, err := UnmarshalModel(b)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if got.Fingerprint() != m.Fingerprint() {
			t.Errorf("%s: fingerprint changed across the wire: %016x != %016x",
				m.Name, got.Fingerprint(), m.Fingerprint())
		}
		if got.Name != m.Name || got.Cores != m.Cores || got.HWThreads() != m.HWThreads() {
			t.Errorf("%s: fields changed across the wire", m.Name)
		}
	}
}

// TestModelRoundTripMutatedClone encodes a SetCost-mutated,
// feature-edited clone — the case that makes the full-model codec
// necessary at all (a worker cannot reconstruct it from the name).
func TestModelRoundTripMutatedClone(t *testing.T) {
	base := WestmereX980()
	m := base.WithFeatures(Features{HWGather: true, FMA: true, HWPrefetch: true, SMT: 2})
	m.SetCost(OpGatherElem, Cost{Port: PortLoad, RecipTput: 0.25, Latency: 3, Pipelined: true, PerElement: true})
	m.FreqGHz = 3.465 // a non-round float must survive exactly

	if m.Fingerprint() == base.Fingerprint() {
		t.Fatal("mutated clone fingerprints like its base; test is vacuous")
	}
	b, err := MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalModel(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != m.Fingerprint() {
		t.Errorf("mutated clone fingerprint changed across the wire: %016x != %016x",
			got.Fingerprint(), m.Fingerprint())
	}
	if got.Cost(OpGatherElem) != m.Cost(OpGatherElem) {
		t.Errorf("cost-table edit lost across the wire: %+v != %+v",
			got.Cost(OpGatherElem), m.Cost(OpGatherElem))
	}
}

// TestUnmarshalModelRejectsInvalid feeds the decoder garbage and
// structurally invalid models.
func TestUnmarshalModelRejectsInvalid(t *testing.T) {
	if _, err := UnmarshalModel([]byte("{not json")); err == nil {
		t.Error("malformed JSON accepted")
	}
	// Valid JSON, invalid model (no cores, no caches, no costs).
	if _, err := UnmarshalModel([]byte(`{"name":"bogus"}`)); err == nil {
		t.Error("structurally invalid model accepted")
	}
}

// TestUnmarshalModelRejectsBadLineSize sends a model whose cache line size
// is not a power of two through the wire codec, as a /v1/cell peer would.
func TestUnmarshalModelRejectsBadLineSize(t *testing.T) {
	m := KnightsFerry()
	for i := range m.Caches {
		m.Caches[i].LineBytes = 96
		m.Caches[i].SizeBytes = 96 * m.Caches[i].Assoc * 64
	}
	b, err := MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	_, err = UnmarshalModel(b)
	if err == nil || !strings.Contains(err.Error(), "cache L1 line size 96 is not a power of two") {
		t.Errorf("UnmarshalModel = %v, want the line-size rejection", err)
	}
}
