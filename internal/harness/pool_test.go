package harness

import (
	"testing"

	"opalperf/internal/md"
	"opalperf/internal/parallel"
	"opalperf/internal/platform"
)

// TestRunManyOrdered checks that pool outcomes come back in spec order.
func TestRunManyOrdered(t *testing.T) {
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(4)
	sys := Sizes(0.04)["small"]
	var specs []RunSpec
	for p := 1; p <= 4; p++ {
		specs = append(specs, RunSpec{
			Platform: platform.J90(),
			Sys:      sys,
			Opts:     md.Options{Cutoff: NoCutoff, UpdateEvery: 1, Accounting: true, Minimize: true},
			Servers:  p,
			Steps:    2,
		})
	}
	outs, err := RunMany(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(specs) {
		t.Fatalf("outcomes = %d, want %d", len(outs), len(specs))
	}
	for i, out := range outs {
		if len(out.Result.ServerTIDs) != specs[i].Servers {
			t.Errorf("outcome %d has %d servers, want %d", i, len(out.Result.ServerTIDs), specs[i].Servers)
		}
	}
}
