package ctlplane

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var updateCanonical = flag.Bool("update", false, "rewrite testdata/canonical.golden")

// goldenSpecs are the JobSpecs ctlplane's tests submit or canonicalize —
// valid and rejected — plus the shape the benchmark ladder canonicalizes
// (small, scale 0.05, 4 servers, 120 steps, update 2, cut-off 10).
func goldenSpecs(t *testing.T) []JobSpec {
	specs := []JobSpec{
		{Tenant: "alice", Steps: 10, Servers: 2},
		{Tenant: "bob", Platform: " J90 ", Size: "SMALL", Scale: 1,
			Steps: 10, Servers: 2, Cutoff: 60, UpdateEvery: 1, Strategy: "LCG"},
		{Steps: 10, Servers: 2, Seed: 7},
		chaosSpec(0), chaosSpec(3), testSpec(0), testSpec(11),
		{Size: "small", Scale: 0.02, Servers: 2, Steps: 5000, UpdateEvery: 2},
		{Size: "small", Scale: 0.02, Servers: 2, Steps: 5000, UpdateEvery: 2, Seed: 9},
		{Size: "small", Scale: 0.02, Servers: 2, Steps: 2000, UpdateEvery: 2},
		{Size: "small", Scale: 0.02, Servers: 2, Steps: 6, UpdateEvery: 2},
		{Size: "small", Scale: 0.02, Servers: 2, Steps: 4, UpdateEvery: 2, Seed: 7},
		{Size: "small", Scale: 0.02, Servers: 2, Steps: 4, UpdateEvery: 2, Seed: 101},
		{Size: "small", Scale: 0.05, Servers: 4, Steps: 120, UpdateEvery: 2, Cutoff: 10, Seed: 1},
		{Size: "medium", Scale: 0.1, Servers: 3, Steps: 8, Strategy: "folded", Dynamics: true,
			SelfHeal: true, FaultRate: 0.05, FaultSeed: 3},
		{Steps: 4, Servers: 1, FaultSeed: 5},
		// Rejected.
		{Steps: 0, Servers: 1},
		{Steps: 10, Servers: 1, Platform: "pdp11"},
		{Steps: 10, Servers: 1, Size: "gigantic"},
		{Steps: 10, Servers: 1, Scale: 2},
		{Steps: 10, Servers: 999},
		{Steps: 99999, Servers: 1},
		{Steps: 10, Servers: 1, Strategy: "random"},
		{Steps: 10, Servers: 1, FaultRate: 2},
		{Steps: 10, Servers: 0, SelfHeal: true},
		{Steps: 10, Servers: 1, Cutoff: -1},
	}
	for _, body := range []string{
		`{"size":"small","scale":0.02,"servers":2,"steps":6,"update_every":2}`,
		`{"steps":0}`,
		`{"steps":5,"platform":"pdp11"}`,
		`{"size":"small","scale":0.02,"servers":2,"steps":4,"seed":3}`,
		`{"size":"small","scale":0.02,"servers":2,"steps":4}`,
	} {
		var s JobSpec
		if err := json.Unmarshal([]byte(body), &s); err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	return specs
}

// TestCanonicalGolden pins Canonicalize's output and Hash() for every
// spec above, byte for byte: the canonical form is opald's dedup key and
// the JobSpec wire form the benchmark posts.  Refresh with
// `go test ./internal/ctlplane -run CanonicalGolden -update`.
func TestCanonicalGolden(t *testing.T) {
	type row struct {
		In        JobSpec  `json:"in"`
		Canonical *JobSpec `json:"canonical,omitempty"`
		Hash      string   `json:"hash,omitempty"`
		Rejected  bool     `json:"rejected,omitempty"`
	}
	var rows []row
	for _, s := range goldenSpecs(t) {
		r := row{In: s}
		if c, err := s.Canonicalize(Limits{}); err != nil {
			r.Rejected = true
		} else {
			r.Canonical, r.Hash = &c, c.Hash()
		}
		rows = append(rows, r)
	}
	got, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	const path = "testdata/canonical.golden"
	if *updateCanonical {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("canonical specs differ from %s:\n%s", path, got)
	}
}
