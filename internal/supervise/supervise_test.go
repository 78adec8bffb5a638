package supervise

import "testing"

// fakeSpawner hands out sequential TIDs starting at base and records the
// replacement counters it was called with.
type fakeSpawner struct {
	base  int
	calls []int
}

func (f *fakeSpawner) spawn(k int) int {
	f.calls = append(f.calls, k)
	return f.base + len(f.calls) - 1
}

func TestSupervisorHealCycle(t *testing.T) {
	sp := &fakeSpawner{base: 100}
	s := New(Options{Width: 3, Spawn: sp.spawn})
	if got := s.state; got != Healthy {
		t.Fatalf("fresh supervisor state = %v, want healthy", got)
	}
	if !s.CanRespawn() {
		t.Fatal("fresh supervisor cannot respawn")
	}

	tid, ok := s.OnDeath(1, 42)
	if !ok || tid != 100 {
		t.Fatalf("OnDeath = (%d, %v), want (100, true)", tid, ok)
	}
	if s.state != Healing {
		t.Fatalf("state after OnDeath = %v, want healing", s.state)
	}

	// A cascading death during the same healing window heals too.
	tid, ok = s.OnDeath(0, 43)
	if !ok || tid != 101 {
		t.Fatalf("cascading OnDeath = (%d, %v), want (101, true)", tid, ok)
	}

	s.Healed()
	if s.state != Healthy {
		t.Fatalf("state after Healed = %v, want healthy", s.state)
	}
	if got := s.respawns; got != 2 {
		t.Fatalf("respawns = %d, want 2", got)
	}
	lost := s.lost
	if len(lost) != 2 || lost[0] != 42 || lost[1] != 43 {
		t.Fatalf("lost = %v, want [42 43]", lost)
	}
	if len(sp.calls) != 2 || sp.calls[0] != 0 || sp.calls[1] != 1 {
		t.Fatalf("spawn replacement counters = %v, want [0 1]", sp.calls)
	}
}

func TestSupervisorBudgetExhaustionDegrades(t *testing.T) {
	sp := &fakeSpawner{base: 200}
	s := New(Options{Width: 2, MaxRespawns: 1, Spawn: sp.spawn})

	if _, ok := s.OnDeath(0, 7); !ok {
		t.Fatal("first death within budget must heal")
	}
	s.Healed()

	if s.CanRespawn() {
		t.Fatal("budget of 1 must be exhausted after one respawn")
	}
	if _, ok := s.OnDeath(1, 8); ok {
		t.Fatal("death beyond budget must refuse to heal")
	}
	if s.state != Degraded {
		t.Fatalf("state after refusal = %v, want degraded", s.state)
	}

	// Degraded is terminal: Healed does not resurrect, further deaths
	// keep refusing, and the refused death is not counted as lost here
	// (the degradation path records it).
	s.Healed()
	if s.state != Degraded {
		t.Fatalf("Healed must not leave degraded, state = %v", s.state)
	}
	if _, ok := s.OnDeath(0, 9); ok {
		t.Fatal("degraded supervisor must never heal again")
	}
	if got := s.respawns; got != 1 {
		t.Fatalf("respawns = %d, want 1", got)
	}
	if got := len(s.lost); got != 1 {
		t.Fatalf("len(Lost) = %d, want 1 (refused deaths are not recorded)", got)
	}
}

func TestSupervisorUnlimitedBudget(t *testing.T) {
	sp := &fakeSpawner{base: 300}
	s := New(Options{Width: 1, MaxRespawns: 0, Spawn: sp.spawn})
	for i := 0; i < 10; i++ {
		if _, ok := s.OnDeath(0, i); !ok {
			t.Fatalf("unlimited budget refused respawn %d", i)
		}
		s.Healed()
	}
	if got := s.respawns; got != 10 {
		t.Fatalf("respawns = %d, want 10", got)
	}
}

func TestSupervisorPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero width", func() { New(Options{Width: 0, Spawn: func(int) int { return 0 }}) })
	mustPanic("nil spawn", func() { New(Options{Width: 1}) })
	s := New(Options{Width: 2, Spawn: func(int) int { return 0 }})
	mustPanic("rank out of range", func() { s.OnDeath(2, 0) })
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Healthy: "healthy", Healing: "healing", Degraded: "degraded", State(9): "State(9)"} {
		if got := s.String(); got != want {
			t.Fatalf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}
