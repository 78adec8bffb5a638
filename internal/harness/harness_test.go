package harness

import (
	"math"
	"testing"

	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/platform"
)

// testSizes returns scaled-down systems: large enough that the
// communication bandwidth term is identifiable against the per-message
// overhead (as it is at paper scale), small enough to stay fast.
func testSizes() map[string]*molecule.System {
	return map[string]*molecule.System{
		"small":  molecule.TestComplex(110, 190, 44),
		"medium": molecule.TestComplex(300, 500, 42),
		"large":  molecule.TestComplex(430, 870, 43),
	}
}

func TestRunProducesBreakdown(t *testing.T) {
	out, err := Run(RunSpec{
		Platform: platform.J90(),
		Sys:      testSizes()["medium"],
		Opts:     md.Options{Accounting: true, Minimize: true},
		Servers:  3,
		Steps:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := out.Breakdown
	if b.ParComp <= 0 || b.SeqComp <= 0 || b.Comm <= 0 || b.Sync <= 0 {
		t.Errorf("breakdown = %+v", b)
	}
	if math.Abs(b.Sum()-out.Wall) > 1e-9*out.Wall {
		t.Errorf("sum %v != wall %v", b.Sum(), out.Wall)
	}
	if len(out.Result.Steps) != 3 {
		t.Errorf("steps = %d", len(out.Result.Steps))
	}
}

func TestRunSerialSpec(t *testing.T) {
	out, err := Run(RunSpec{
		Platform: platform.J90(),
		Sys:      testSizes()["small"],
		Opts:     md.Options{Minimize: true},
		Servers:  0, // serial engine
		Steps:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Wall <= 0 {
		t.Error("no wall time")
	}
	if out.Breakdown.ParComp != 0 {
		t.Error("serial run should have no parallel computation")
	}
}

func TestMeasurementOfCounts(t *testing.T) {
	spec := RunSpec{
		Platform: platform.J90(),
		Sys:      testSizes()["small"],
		Opts:     md.Options{Accounting: true, Minimize: true, UpdateEvery: 2},
		Servers:  2,
		Steps:    4,
	}
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := MeasurementOf(spec, out)
	n := spec.Sys.N
	// 2 updates in 4 steps, each checking the full triangle.
	wantChecks := 2.0 * float64(n*(n-1)/2)
	if m.TotalChecks != wantChecks {
		t.Errorf("checks = %v, want %v", m.TotalChecks, wantChecks)
	}
	if m.App.U != 0.5 || m.App.P != 2 || m.App.S != 4 {
		t.Errorf("app = %+v", m.App)
	}
	if m.Par <= 0 || m.Comm <= 0 {
		t.Errorf("measurement = %+v", m)
	}
}

func TestSizesScaled(t *testing.T) {
	small := Sizes(0.05)
	if small["medium"].N >= molecule.Antennapedia().N {
		t.Error("scaled sizes should be smaller")
	}
	full := Sizes(1)
	if full["medium"].N != 4289 || full["large"].N != 6289 {
		t.Error("full sizes should be the paper's")
	}
}
