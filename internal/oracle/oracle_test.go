package oracle

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"opalperf/internal/core"
	"opalperf/internal/molecule"
	"opalperf/internal/telemetry"
	"opalperf/internal/trace"
	"opalperf/internal/vm"
)

// testSystem is a tiny generated complex — the oracle only needs its atom
// counts for core.AppFor.
func testSystem() *molecule.System {
	return molecule.Generate(molecule.Config{
		Name: "oracle-test", SoluteAtoms: 16, Waters: 16, Seed: 1, Interleave: true,
	})
}

// synthetic drives an oracle with hand-built windows: each step occupies
// one virtual second with fixed client seq/comm/sync segments and two
// server compute spans, so the measured breakdown of every window is
// known exactly.  comm sets the client's transfer time for the step.
type synthetic struct {
	rec  *trace.Recorder
	o    *Oracle
	step int
	now  float64
}

func newSynthetic(cfg Config) *synthetic {
	cfg.Sys = testSystem()
	cfg.Servers = 2
	if cfg.Machine.A1 == 0 {
		// CommTime divides by the communication rate, so "a machine that
		// predicts ~nothing" needs a1 huge, not zero.
		cfg.Machine.A1 = 1e12
	}
	s := &synthetic{rec: trace.NewRecorder(), o: New(cfg)}
	s.o.Attach(&telemetry.Scope{ID: "synthetic"}, s.rec, 0, 2)
	s.o.Start(0)
	return s
}

func (s *synthetic) doStep(comm float64) {
	t := s.now
	s.rec.Segment(0, "client", vm.SegCompute, t, t+0.3)
	s.rec.Segment(0, "client", vm.SegComm, t+0.3, t+0.3+comm)
	s.rec.Segment(0, "client", vm.SegSync, t+0.3+comm, t+0.35+comm)
	s.rec.Segment(1, "srv", vm.SegCompute, t+0.35, t+0.75)
	s.rec.Segment(2, "srv", vm.SegCompute, t+0.35, t+0.75)
	s.now = t + 1
	s.o.StepDone(s.step, s.now, 10, 5)
	s.step++
}

// A zero machine predicts zero for every term, so the constant measured
// breakdown is pure bias: absorbed by the first EWMA observation, never
// anomalous — until one window's communication actually changes.
func TestOracleFlagsCommSpike(t *testing.T) {
	s := newSynthetic(Config{Window: 1})

	for i := 0; i < 5; i++ {
		s.doStep(0.1)
	}
	if got := s.o.Anomalies(); got != 0 {
		t.Fatalf("constant bias raised %d anomalies, want 0", got)
	}
	if _, ok := s.o.scope.Health(); !ok {
		t.Fatal("health degraded without an anomaly")
	}

	s.doStep(0.6) // the spike: comm jumps 6x in window 5
	if got := s.o.Anomalies(); got != 1 {
		t.Fatalf("comm spike raised %d anomalies, want 1", got)
	}
	last := s.o.Last()
	var commTerm *TermReport
	for i := range last.Terms {
		if last.Terms[i].Term == "comm" {
			commTerm = &last.Terms[i]
		}
	}
	if commTerm == nil || !commTerm.Anomaly {
		t.Fatalf("anomaly not attributed to comm: %+v", last.Terms)
	}
	if state, ok := s.o.scope.Health(); ok || state != "model_anomaly" {
		t.Fatalf("the anomaly did not mark the run's health: state=%q ok=%v", state, ok)
	}

	// The anomalous residual is not folded into the EWMA, so a return to
	// normal does not look anomalous in the other direction.
	s.doStep(0.1)
	if got := s.o.Anomalies(); got != 1 {
		t.Fatalf("recovery window re-flagged: %d anomalies", got)
	}
	if got := s.o.Windows(); got != 7 {
		t.Fatalf("windows = %d, want 7", got)
	}
}

// minWindows is the warm-up: a spike landing before the EWMA has seen
// enough windows must not fire.
func TestOracleWarmupSuppressesEarlySpike(t *testing.T) {
	s := newSynthetic(Config{Window: 1})
	s.doStep(0.1)
	s.doStep(0.6) // EWMA has 1 observation < minWindows
	if got := s.o.Anomalies(); got != 0 {
		t.Fatalf("spike inside warm-up fired %d anomalies", got)
	}
}

// A trailing partial window is still evaluated for /modelz but skips the
// anomaly check: its step count differs from the EWMA's training windows.
func TestOraclePartialFinalWindow(t *testing.T) {
	s := newSynthetic(Config{Window: 2})
	for i := 0; i < 5; i++ {
		s.doStep(0.1)
	}
	s.o.Finish(s.now)
	if got := s.o.Windows(); got != 2 {
		t.Fatalf("full windows = %d, want 2 (5 steps / window 2)", got)
	}
	last := s.o.Last()
	if last == nil || !last.Partial {
		t.Fatalf("trailing window not marked partial: %+v", last)
	}
	if last.StartStep != 4 || last.EndStep != 5 {
		t.Fatalf("partial window spans steps %d-%d, want 4-5", last.StartStep, last.EndStep)
	}
	for _, tr := range last.Terms {
		if tr.Anomaly {
			t.Fatalf("partial window ran the anomaly check: %+v", tr)
		}
	}
}

// The exact-count prediction wires the engine's pair counters into the
// Par term; the closed forms cover the other three.
func TestPredictCountsUsesExactPairs(t *testing.T) {
	m := core.Machine{Name: "m", A2: 2e-6, A3: 1e-5, A4: 1e-7}
	app := core.AppFor(testSystem(), 10, 1, 4, 5)
	b := m.PredictCounts(app, 1000, 300)
	want := (2e-6*1000 + 1e-5*300) / 4
	if b.Par != want {
		t.Fatalf("Par = %g, want %g", b.Par, want)
	}
	if b.Seq != m.Predict(app).Seq {
		t.Fatal("PredictCounts changed the Seq closed form")
	}
}

func TestTermNamesMatchBreakdownTerms(t *testing.T) {
	names := core.TermNames()
	b := core.Breakdown{Par: 1, Seq: 2, Comm: 3, Sync: 4}
	terms := b.Terms()
	if len(names) != 4 || len(terms) != 4 {
		t.Fatalf("names %v terms %v", names, terms)
	}
	want := map[string]float64{"par": 1, "seq": 2, "comm": 3, "sync": 4}
	for i, n := range names {
		if terms[i] != want[n] {
			t.Fatalf("term %q = %g, want %g", n, terms[i], want[n])
		}
	}
}

// /modelz is a plain JSON document of the oracle's state.
func TestModelzHandler(t *testing.T) {
	s := newSynthetic(Config{Window: 1, Machine: core.Machine{Name: "m-test", A1: 1e12}})
	s.doStep(0.1)
	s.doStep(0.1)

	rr := httptest.NewRecorder()
	s.o.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/modelz", nil))
	if rr.Code != 200 {
		t.Fatalf("/modelz status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/modelz not JSON: %v\n%s", err, rr.Body.String())
	}
	if snap.Run != "synthetic" || snap.Windows != 2 || snap.Anomalies != 0 || snap.Machine.Name != "m-test" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Last == nil || len(snap.Last.Terms) != 4 {
		t.Fatalf("snapshot missing last window: %+v", snap.Last)
	}
	if !strings.Contains(rr.Body.String(), `"measured"`) {
		t.Fatalf("term reports missing measured values:\n%s", rr.Body.String())
	}
}

// perProcessTotals is the reduction the oracle's windows used before the
// recorder reduced every process in one pass: one pass over the whole
// trace per process.
func perProcessTotals(segs []trace.Segment, proc int, t0, t1 float64) [vm.NumSegKinds]float64 {
	var t [vm.NumSegKinds]float64
	for _, s := range segs {
		if s.Proc != proc {
			continue
		}
		start, end := math.Max(s.Start, t0), math.Min(s.End, t1)
		if end > start {
			t[s.Kind] += end - start
		}
	}
	return t
}

// Every window's measured terms and residuals equal, bit for bit, what
// per-process passes over the trace give — through irregular step
// lengths, server recovery time and a replacement server whose large TID
// appears mid-run (which also exercises the fleet-width renormalization).
func TestOracleWindowsMatchPerProcessReduction(t *testing.T) {
	cfg := Config{Window: 3}
	cfg.Sys = testSystem()
	cfg.Machine.A1 = 1e9
	rec := trace.NewRecorder()
	o := New(cfg)
	o.Attach(&telemetry.Scope{}, rec, 0, 2)
	o.Start(0)

	rng := rand.New(rand.NewSource(5))
	now, winStart := 0.0, 0.0
	servers := []int{1, 2}
	for step := 0; step < 30; step++ {
		if step == 13 {
			servers = []int{1, 2, 1<<16 + 2} // server 2 died; its replacement joins
		}
		t0 := now
		seq, comm := 0.1+0.3*rng.Float64(), 0.05+0.2*rng.Float64()
		rec.Segment(0, "client", vm.SegCompute, t0, t0+seq)
		rec.Segment(0, "client", vm.SegComm, t0+seq, t0+seq+comm)
		rec.Segment(0, "client", vm.SegSync, t0+seq+comm, t0+seq+comm+0.01)
		for _, id := range servers {
			if id == 2 && step >= 13 {
				continue
			}
			work := 0.2 + 0.4*rng.Float64()
			rec.Segment(id, "srv", vm.SegCompute, t0+seq, t0+seq+work)
			rec.Segment(id, "srv", vm.SegComm, t0+seq+work, t0+seq+work+0.02*rng.Float64())
			if rng.Intn(4) == 0 {
				rec.Segment(id, "srv", vm.SegRecovery, t0+seq+work, t0+seq+work+0.1*rng.Float64())
			}
		}
		now = t0 + 1 + 0.5*rng.Float64()
		o.StepDone(step, now, 100+rng.Intn(50), 40+rng.Intn(20))
		if (step+1)%cfg.Window != 0 {
			continue
		}

		rep := o.Last()
		if rep == nil || rep.EndStep != step+1 || rep.T0 != winStart || rep.T1 != now {
			t.Fatalf("step %d: window report %+v, want [%g, %g] ending at step %d", step, rep, winStart, now, step+1)
		}
		segs := rec.Segments()
		ct := perProcessTotals(segs, 0, winStart, now)
		seqT := ct[vm.SegCompute] + ct[vm.SegOther]
		commT, syncT, recovery, sum := ct[vm.SegComm], ct[vm.SegSync], ct[vm.SegRecovery], 0.0
		for _, id := range servers {
			st := perProcessTotals(segs, id, winStart, now)
			sum += st[vm.SegCompute] + st[vm.SegOther]
			commT += st[vm.SegComm]
			recovery += st[vm.SegRecovery]
		}
		par := sum / float64(len(servers))
		if len(servers) != 2 {
			par = par * float64(len(servers)) / 2
		}
		want := []float64{par, seqT, commT + recovery, syncT}
		for i, tr := range rep.Terms {
			if math.Float64bits(tr.Measured) != math.Float64bits(want[i]) {
				t.Fatalf("window %d term %s: measured %v, per-process reduction %v", rep.Index, tr.Term, tr.Measured, want[i])
			}
			if math.Float64bits(tr.Residual) != math.Float64bits(want[i]-tr.Predicted) {
				t.Fatalf("window %d term %s: residual %v, per-process reduction %v", rep.Index, tr.Term, tr.Residual, want[i]-tr.Predicted)
			}
		}
		winStart = now
	}
	if o.Windows() != 10 {
		t.Fatalf("evaluated %d windows, want 10", o.Windows())
	}
}
