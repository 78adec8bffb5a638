package harness

import (
	"testing"

	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/platform"
)

func TestClusterRunJ90HIPPI(t *testing.T) {
	sys := molecule.TestComplex(250, 400, 7)
	cl := platform.J90Cluster(4) // client + 3 servers fit one node
	opts := md.Options{Cutoff: NoCutoff, Accounting: true, Minimize: true}

	// Within one node the cluster behaves like the single J90.
	within, err := Run(RunSpec{Platform: cl, Sys: sys, Opts: opts, Servers: 3, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	single, err := Run(RunSpec{Platform: platform.J90(), Sys: sys, Opts: opts, Servers: 3, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d := (within.Wall - single.Wall) / single.Wall; d > 0.02 || d < -0.02 {
		t.Errorf("within-node cluster %.4f vs single %.4f (%.1f%%)", within.Wall, single.Wall, 100*d)
	}

	// Crossing nodes changes the communication profile but still works
	// and still computes the same physics.
	across, err := Run(RunSpec{Platform: cl, Sys: sys, Opts: opts, Servers: 7, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if across.Breakdown.Comm <= 0 {
		t.Error("no communication recorded across nodes")
	}
	for i := range across.Result.Steps {
		if across.Result.Steps[i].ETotal != within.Result.Steps[i].ETotal {
			// Different server counts change summation order; compare
			// with tolerance.
			a, b := across.Result.Steps[i].ETotal, within.Result.Steps[i].ETotal
			if d := (a - b) / (1 + b); d > 1e-9 || d < -1e-9 {
				t.Fatalf("step %d energies diverge: %v vs %v", i, a, b)
			}
		}
	}
}

func TestClusterBeatsSingleNodeWhenOversubscribed(t *testing.T) {
	// With 15 servers the single 8-cpu J90 cannot play; the HIPPI
	// cluster keeps scaling — helped by the paper's own observation that
	// the intra-node socket PVM (3 MB/s, 10 ms) is slower than a real
	// network, so spreading over HIPPI nodes even lowers the per-message
	// cost.
	sys := molecule.TestComplex(1000, 2000, 8)
	cl := platform.J90Cluster(8)
	opts := md.Options{Cutoff: NoCutoff, Accounting: true, Minimize: true}
	p7, err := Run(RunSpec{Platform: cl, Sys: sys, Opts: opts, Servers: 7, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	p15, err := Run(RunSpec{Platform: cl, Sys: sys, Opts: opts, Servers: 15, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p15.Wall >= p7.Wall {
		t.Errorf("cluster p=15 (%.3f) should beat p=7 (%.3f)", p15.Wall, p7.Wall)
	}
}
