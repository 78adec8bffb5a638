package core

import (
	"math"
	"testing"
	"testing/quick"

	"opalperf/internal/molecule"
	"opalperf/internal/platform"
)

func mediumApp(p int, cutoff, fullUpdate bool) App {
	sys := molecule.Antennapedia()
	c := 60.0
	if cutoff {
		c = 10.0
	}
	up := 1
	if !fullUpdate {
		up = 10
	}
	return AppFor(sys, c, up, p, 10)
}

func testMachine() Machine {
	return MachineFor(platform.J90(), molecule.Antennapedia().Gamma())
}

func TestAppFor(t *testing.T) {
	app := mediumApp(4, true, true)
	if app.N != 4289 || app.P != 4 || app.S != 10 || app.U != 1 {
		t.Fatalf("app = %+v", app)
	}
	if !app.Cutoff {
		t.Error("10A cut-off should be effective")
	}
	if app.NTilde < 100 || app.NTilde > 180 {
		t.Errorf("ntilde = %v", app.NTilde)
	}
	if app.Alpha != 24 {
		t.Errorf("alpha = %v", app.Alpha)
	}
	no := mediumApp(4, false, true)
	if no.Cutoff {
		t.Error("60A cut-off should be ineffective")
	}
}

func TestParCompScalesInverselyWithP(t *testing.T) {
	m := testMachine()
	t1 := m.ParCompTime(mediumApp(1, false, true))
	t7 := m.ParCompTime(mediumApp(7, false, true))
	if math.Abs(t1/t7-7) > 1e-9 {
		t.Errorf("par comp ratio = %v, want 7", t1/t7)
	}
}

func TestCutoffReducesParComp(t *testing.T) {
	m := testMachine()
	no := m.NBIntTime(mediumApp(1, false, true))
	cut := m.NBIntTime(mediumApp(1, true, true))
	if cut*5 >= no {
		t.Errorf("cut-off nbint %v not drastically below %v", cut, no)
	}
}

func TestPartialUpdateReducesUpdateTime(t *testing.T) {
	m := testMachine()
	full := m.UpdateTime(mediumApp(1, false, true))
	part := m.UpdateTime(mediumApp(1, false, false))
	if math.Abs(full/part-10) > 1e-9 {
		t.Errorf("update ratio = %v, want 10", full/part)
	}
}

func TestCommGrowsLinearlyWithServers(t *testing.T) {
	m := testMachine()
	c1 := m.CommTime(mediumApp(1, false, true))
	c7 := m.CommTime(mediumApp(7, false, true))
	if math.Abs(c7/c1-7) > 1e-9 {
		t.Errorf("comm ratio = %v, want 7", c7/c1)
	}
}

func TestSyncIndependentOfServersAndSize(t *testing.T) {
	m := testMachine()
	s1 := m.SyncTime(mediumApp(1, false, true))
	s7 := m.SyncTime(mediumApp(7, false, true))
	if s1 != s7 {
		t.Errorf("sync depends on p: %v vs %v", s1, s7)
	}
	// eq. 10: 2 s (u+1) b5.
	want := 2 * 10 * (1 + 1) * m.B5
	if math.Abs(s1-want) > 1e-12 {
		t.Errorf("sync = %v, want %v", s1, want)
	}
}

func TestBreakdownTotal(t *testing.T) {
	m := testMachine()
	app := mediumApp(3, true, true)
	b := m.Predict(app)
	if math.Abs(b.Total()-(b.Par+b.Seq+b.Comm+b.Sync)) > 1e-12 {
		t.Error("total mismatch")
	}
	if math.Abs(m.Total(app)-b.Total()) > 1e-12 {
		t.Error("Total() shorthand mismatch")
	}
}

func TestUpdateTimePaperForm(t *testing.T) {
	// The published eq. 3 evaluates positively for the paper's gamma >
	// 1/2 complexes and scales with s*u/p like the engine-exact form.
	m := testMachine()
	app := mediumApp(2, false, true)
	v := m.UpdateTimePaper(app)
	if v <= 0 {
		t.Errorf("paper update time = %v", v)
	}
	app2 := app
	app2.P = 4
	if math.Abs(m.UpdateTimePaper(app)/m.UpdateTimePaper(app2)-2) > 1e-9 {
		t.Error("paper form does not scale with 1/p")
	}
	// It is a scaled-down variant of the full triangle.
	if v >= m.UpdateTime(app) {
		t.Errorf("paper form %v should be below engine-exact %v for gamma>1/2", v, m.UpdateTime(app))
	}
}

func TestSpeedupShape(t *testing.T) {
	m := testMachine()
	// Compute-bound (no cut-off): decent but sub-linear speed-up — the
	// paper reserves "speed-up of 4 or greater" for the platforms with
	// good communication; the J90's 3 MB/s PVM keeps it below that.
	su := m.Speedup(mediumApp(1, false, true), 7)
	if su[0] != 1 {
		t.Errorf("speedup(1) = %v", su[0])
	}
	if su[6] < 2.5 || su[6] > 4.5 {
		t.Errorf("J90 no cut-off speedup(7) = %v, want 2.5..4.5", su[6])
	}
	// A platform with a strong network scales the same workload to >= 4.
	fast := MachineFor(platform.FastCoPs(), molecule.Antennapedia().Gamma())
	sf := fast.Speedup(mediumApp(1, false, true), 7)
	if sf[6] < 4 {
		t.Errorf("fast CoPs no cut-off speedup(7) = %v, want >= 4", sf[6])
	}
	// Communication-bound (cut-off on the slow J90 network): speed-up
	// collapses and turns into slow-down for more than a few servers —
	// the paper's headline observation for the J90 (Chart 5d).
	sc := m.Speedup(mediumApp(1, true, true), 7)
	best := 0.0
	for _, v := range sc {
		if v > best {
			best = v
		}
	}
	if best > 3.5 {
		t.Errorf("cut-off speedup reaches %v on the J90; should saturate early", best)
	}
	if sc[6] >= sc[2] {
		t.Errorf("cut-off speedup should decay beyond ~3 servers: %v", sc)
	}
}

func TestMachineForFastNetworksScaleBetter(t *testing.T) {
	sys := molecule.Antennapedia()
	t3e := MachineFor(platform.T3E900(), sys.Gamma())
	j90 := MachineFor(platform.J90(), sys.Gamma())
	app := AppFor(sys, 10, 1, 1, 10)
	st := t3e.Speedup(app, 7)
	sj := j90.Speedup(app, 7)
	if st[6] <= sj[6] {
		t.Errorf("T3E cut-off speedup %v should beat J90 %v", st[6], sj[6])
	}
	if st[6] < 4 {
		t.Errorf("T3E speedup(7) = %v, want >= 4", st[6])
	}
}

// Property: every component is monotone non-decreasing in the step count.
func TestMonotoneInSteps(t *testing.T) {
	m := testMachine()
	f := func(s1, s2 uint8, p8 uint8) bool {
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		p := int(p8)%7 + 1
		a1 := mediumApp(p, true, true)
		a2 := a1
		a1.S, a2.S = int(s1)+1, int(s2)+1
		return m.Total(a1) <= m.Total(a2)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: total time is positive and finite over the design space.
func TestTotalsFiniteProperty(t *testing.T) {
	m := testMachine()
	f := func(p8 uint8, cut, full bool) bool {
		p := int(p8)%7 + 1
		v := m.Total(mediumApp(p, cut, full))
		return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
