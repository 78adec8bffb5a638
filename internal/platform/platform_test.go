package platform

import (
	"math"
	"testing"

	"opalperf/internal/hpm"
)

// nbMix is roughly the op mix of one non-bonded pair evaluation; the
// platform weight tables were chosen so that this mix reproduces the flop
// inflation factors of the paper's Table 1.
var nbMix = hpm.Ops{Add: 14, Mul: 18, Div: 1, Sqrt: 1}

func relErr(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }

// flopFactor is Table 1's flop inflation: counted over canonical flops of
// mix on pl.
func flopFactor(pl *Platform, mix hpm.Ops) float64 {
	return pl.Weights.Counted(mix) / mix.Canonical()
}

// adjustedRate is Table 1's "adjusted computation rate": the rate at
// which pl retires canonical (PGI lower-bound) flops of mix.
func adjustedRate(pl *Platform, mix hpm.Ops) float64 {
	return pl.RawRateMFlops / flopFactor(pl, mix)
}

func TestTable1FlopFactors(t *testing.T) {
	// Paper Table 1: counted MFlop for the same kernel: J90 497.55,
	// T3E 811.71, slow/SMP CoPs 327.40, fast CoPs 325.80 (canonical).
	want := map[string]float64{
		"j90":  497.55 / 325.80,
		"t3e":  811.71 / 325.80,
		"slow": 327.40 / 325.80,
		"smp":  327.40 / 325.80,
		"fast": 1.0,
	}
	for key, w := range want {
		pl, err := ByName(key)
		if err != nil {
			t.Fatal(err)
		}
		got := flopFactor(pl, nbMix)
		if relErr(got, w) > 0.03 {
			t.Errorf("%s flop factor = %.4f, want ~%.4f", key, got, w)
		}
	}
}

func TestTable1AdjustedRates(t *testing.T) {
	// Paper Table 1 "Adjusted Computation Rate": T3E 52, J90 80, slow 50,
	// SMP 100, fast 102 (we compute 67 exactly for fast since its weights
	// are canonical; the paper's 102 column normalizes by the *slow* CoPs
	// count — see EXPERIMENTS.md; shape: SMP/fast CoPs ~ J90 or better,
	// T3E clearly below J90).
	j90 := adjustedRate(J90(), nbMix)
	t3e := adjustedRate(T3E900(), nbMix)
	smp := adjustedRate(SMPCoPs(), nbMix)
	slow := adjustedRate(SlowCoPs(), nbMix)
	if relErr(j90, 80/1.527) > 0.05 {
		t.Errorf("J90 adjusted = %.1f", j90)
	}
	if !(t3e < j90*0.85) {
		t.Errorf("T3E adjusted %.1f should be well below J90 %.1f", t3e, j90)
	}
	if !(smp > slow*1.8) {
		t.Errorf("SMP adjusted %.1f should be ~2x slow %.1f", smp, slow)
	}
}

func TestKernelExecutionTimesMatchTable1(t *testing.T) {
	// Table 1 "Execution Time on single node" for the isolated kernel:
	// T3E 9.56 s, J90 6.18 s, slow 10.00, SMP 5.00, fast 4.85.  The
	// canonical kernel is 325.80 MFlop of the nb mix.
	canonical := 325.80e6
	pairs := canonical / nbMix.Canonical()
	want := map[string]float64{
		"t3e": 9.56, "j90": 6.18, "slow": 10.00, "smp": 5.00, "fast": 4.85,
	}
	for key, sec := range want {
		pl, _ := ByName(key)
		counted := pl.Weights.Counted(nbMix.Times(pairs))
		got := pl.ComputeModel().Seconds(counted, 8<<20)
		if relErr(got, sec) > 0.07 {
			t.Errorf("%s kernel time = %.2f s, want ~%.2f s", key, got, sec)
		}
	}
}

func TestCommModelCosts(t *testing.T) {
	pl := FastCoPs() // 30 MB/s, 15 us
	cm := pl.CommModel()
	busy, lat := cm.SendCost(0, 1, 30e6)
	if math.Abs(busy-(1+15e-6)) > 1e-9 {
		t.Errorf("busy = %v, want ~1s", busy)
	}
	if lat != 0 {
		t.Errorf("latency = %v", lat)
	}
	if cm.SyncCost(4) != pl.SyncSec {
		t.Errorf("sync = %v", cm.SyncCost(4))
	}
	// Empty message costs exactly b1.
	busy, _ = cm.SendCost(0, 1, 0)
	if busy != pl.LatencySec {
		t.Errorf("empty message busy = %v, want b1", busy)
	}
}

func TestCommObservedBelowPeak(t *testing.T) {
	for _, pl := range All() {
		if pl.CommMBs > pl.CommPeakMBs {
			t.Errorf("%s: observed %v MB/s exceeds peak %v", pl.Name, pl.CommMBs, pl.CommPeakMBs)
		}
	}
}

func TestByName(t *testing.T) {
	for _, k := range Keys() {
		pl, err := ByName(k)
		if err != nil || pl == nil {
			t.Errorf("ByName(%q) failed: %v", k, err)
		}
	}
	if _, err := ByName("cray-3"); err == nil {
		t.Error("expected error for unknown platform")
	}
}

func TestAllDistinctNames(t *testing.T) {
	seen := map[string]bool{}
	for _, pl := range All() {
		if seen[pl.Name] {
			t.Errorf("duplicate platform %q", pl.Name)
		}
		seen[pl.Name] = true
		if pl.RawRateMFlops <= 0 || pl.CommMBs <= 0 || pl.LatencySec <= 0 || pl.SyncSec <= 0 {
			t.Errorf("%s has non-positive parameters", pl.Name)
		}
		if err := pl.Mem.Validate(); err != nil {
			t.Errorf("%s memory model: %v", pl.Name, err)
		}
	}
}

func TestMemoryHierarchySlowsComputation(t *testing.T) {
	pl := SlowCoPs()
	cm := pl.ComputeModel()
	inCore := cm.Seconds(32e6, 8<<20)
	swapped := cm.Seconds(32e6, 120<<20)
	if math.Abs(inCore-1.0) > 1e-9 {
		t.Errorf("in-core 32 MFlop = %v s, want 1.0", inCore)
	}
	if math.Abs(swapped-4.0) > 1e-9 {
		t.Errorf("out-of-core 32 MFlop = %v s, want 4.0 (8 MFlop/s)", swapped)
	}
}

func TestJ90ScalarStudy(t *testing.T) {
	// Section 2.6: vectorization on vs off.  The vector J90 runs the
	// kernel roughly an order of magnitude faster.
	vec := J90()
	sc := J90Scalar()
	mix := nbMix.Times(1e6)
	tVec := vec.ComputeModel().Seconds(vec.Weights.Counted(mix), 8<<20)
	tSc := sc.ComputeModel().Seconds(sc.Weights.Counted(mix), 8<<20)
	ratio := tSc / tVec
	if ratio < 5 || ratio > 20 {
		t.Errorf("scalar/vector kernel ratio = %.1f, want ~10", ratio)
	}
	if vec.Name == sc.Name {
		t.Error("names must differ")
	}
}
