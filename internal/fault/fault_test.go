package fault

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// drive consumes a fixed hook sequence from a plan and returns the
// concatenated decisions.
func drive(p *Plan) []float64 {
	var out []float64
	for i := 0; i < 200; i++ {
		d, r := p.SendFault(i%3, (i+1)%3, 64*i)
		out = append(out, d, r)
		out = append(out, p.ComputeFault(i%3))
		out = append(out, p.BarrierFault(i%3))
	}
	return out
}

func TestPlanDeterministicPerSeed(t *testing.T) {
	cfg := Uniform(42, 0.2)
	a := drive(NewPlan(cfg))
	b := drive(NewPlan(cfg))
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestPlanSeedsDiffer(t *testing.T) {
	a := drive(NewPlan(Uniform(1, 0.2)))
	b := drive(NewPlan(Uniform(2, 0.2)))
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical fault schedules")
	}
}

func TestZeroConfigInjectsNothing(t *testing.T) {
	p := NewPlan(Config{Seed: 7})
	for _, v := range drive(p) {
		if v != 0 {
			t.Fatalf("zero-rate plan injected %g", v)
		}
	}
	if p.Stats().Total() != 0 {
		t.Fatalf("zero-rate plan counted faults: %+v", p.Stats())
	}
}

func TestStatsCountInjections(t *testing.T) {
	p := NewPlan(Uniform(3, 1)) // rate 1: every hook faults
	p.SendFault(0, 1, 100)
	p.ComputeFault(0)
	p.BarrierFault(1)
	s := p.Stats()
	if s.Drops != 1 || s.Dups != 1 || s.Delays != 1 || s.Crashes != 1 || s.Stragglers != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Total() != 5 {
		t.Fatalf("total = %d", s.Total())
	}
}

func TestFaultMagnitudesUseDefaults(t *testing.T) {
	p := NewPlan(Config{Seed: 1, DropRate: 1})
	delay, _ := p.SendFault(0, 1, 8)
	// scale() is in [0.5, 1.5): the delay must be within those bounds of
	// the default retry timeout.
	if delay < 0.5*2e-3 || delay >= 1.5*2e-3 {
		t.Fatalf("drop delay %g outside [1ms, 3ms)", delay)
	}
}

// pipePair builds an in-memory full-duplex conn pair.
func pipePair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestPartialWritesDeliverAllBytes(t *testing.T) {
	a, b := pipePair(t)
	fc := WrapConn(a, NetConfig{Seed: 9, PartialWriteRate: 1, MaxChunk: 3}, 1)
	msg := []byte("length-prefixed frame header and body, split every few bytes")
	got := make([]byte, len(msg))
	done := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(b, got)
		done <- err
	}()
	if _, err := fc.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("payload corrupted: %q", got)
	}
}

func TestInjectedResetBreaksConn(t *testing.T) {
	a, _ := pipePair(t)
	fc := WrapConn(a, NetConfig{Seed: 4, ResetRate: 1}, 1)
	if _, err := fc.Write([]byte("doomed")); err != ErrInjectedReset {
		t.Fatalf("err = %v, want ErrInjectedReset", err)
	}
	// The underlying conn is really closed.
	if _, err := a.Write([]byte("x")); err == nil {
		t.Fatal("underlying conn still open after injected reset")
	}
}

func TestZeroNetConfigIsTransparent(t *testing.T) {
	a, b := pipePair(t)
	fc := WrapConn(a, NetConfig{}, 0)
	go fc.Write([]byte("hello"))
	got := make([]byte, 5)
	b.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestDialerStreamsDiffer(t *testing.T) {
	// Two conns wrapped from the same config must not share a stream: the
	// reconnect after an injected reset would otherwise reset again at the
	// exact same write.
	c1 := WrapConn(nil, NetConfig{Seed: 5, ResetRate: 0.5}, 1)
	c2 := WrapConn(nil, NetConfig{Seed: 5, ResetRate: 0.5}, 2)
	if c1.rng == c2.rng {
		t.Fatal("streams identical for distinct conns")
	}
}

func TestKillScheduleDeterministic(t *testing.T) {
	a := Kills(42, 20, 4, 0.15)
	b := Kills(42, 20, 4, 0.15)
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedule sizes: %d vs %d", len(a), len(b))
	}
	for s, ranks := range a {
		if len(b[s]) != len(ranks) {
			t.Fatalf("step %d: %v vs %v", s, ranks, b[s])
		}
		for i := range ranks {
			if ranks[i] != b[s][i] {
				t.Fatalf("step %d: %v vs %v", s, ranks, b[s])
			}
		}
	}
	if a.Total() == 0 {
		t.Fatal("rate 0.15 over 80 draws produced no kills")
	}
	if Kills(43, 20, 4, 0.15).Total() == a.Total() && len(Kills(43, 20, 4, 0.15)) == len(a) {
		// Different seeds may coincide in totals, but identical totals
		// AND step counts for adjacent seeds would be suspicious enough
		// to look at the generator; tolerate it silently only if the
		// schedules genuinely differ somewhere.
		differ := false
		other := Kills(43, 20, 4, 0.15)
		for s, ranks := range a {
			o := other[s]
			if len(o) != len(ranks) {
				differ = true
				break
			}
			for i := range ranks {
				if ranks[i] != o[i] {
					differ = true
					break
				}
			}
		}
		if !differ {
			t.Fatal("seeds 42 and 43 produced identical kill schedules")
		}
	}
	fn := a.Func()
	for s := 0; s < 20; s++ {
		got := fn(s)
		if len(got) != len(a[s]) {
			t.Fatalf("Func()(%d) = %v, want %v", s, got, a[s])
		}
	}
	if Kills(1, 10, 3, 0).Total() != 0 {
		t.Fatal("zero rate must produce an empty schedule")
	}
}
