package vm

import (
	"math"
	"testing"
)

// scriptFaults is a hand-written FaultModel with a fixed schedule, so the
// kernel-side accounting can be asserted exactly.
type scriptFaults struct {
	sendDelay  float64
	sendResend float64
	crash      float64
	straggle   float64
	calls      struct{ send, compute, barrier int }
}

func (f *scriptFaults) SendFault(src, dst, bytes int) (float64, float64) {
	f.calls.send++
	return f.sendDelay, f.sendResend
}
func (f *scriptFaults) ComputeFault(proc int) float64 {
	f.calls.compute++
	return f.crash
}
func (f *scriptFaults) BarrierFault(proc int) float64 {
	f.calls.barrier++
	return f.straggle
}

func runPingPong(t *testing.T, fm FaultModel) (*Kernel, [2]Stats) {
	t.Helper()
	k := NewKernel(FixedCost{Overhead: 1e-3, ByteRate: 1e6, Latency: 1e-4, SyncDelay: 1e-4}, nil)
	k.SetFaults(fm)
	var stats [2]Stats
	k.NewProc("a", ConstRate(1e6), func(p *Proc) {
		p.Compute(1000)
		p.Send(1, 7, "hi", 100)
		m := p.Recv(MatchSrcTag(1, 8))
		_ = m
		p.Barrier("end", 2)
		stats[0] = p.Stats()
	})
	k.NewProc("b", ConstRate(1e6), func(p *Proc) {
		m := p.Recv(MatchSrcTag(0, 7))
		_ = m
		p.Compute(500)
		p.Send(0, 8, "yo", 50)
		p.Barrier("end", 2)
		stats[1] = p.Stats()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return k, stats
}

func TestNilFaultsBitIdenticalToNoFaults(t *testing.T) {
	k1, s1 := runPingPong(t, nil)
	k2, s2 := runPingPong(t, &scriptFaults{}) // zero schedule
	if k1.MaxTime() != k2.MaxTime() {
		t.Fatalf("makespan differs: %v vs %v", k1.MaxTime(), k2.MaxTime())
	}
	if s1 != s2 {
		t.Fatalf("stats differ:\nnil:  %+v\nzero: %+v", s1, s2)
	}
	for i := range s1 {
		if s1[i].Seg[SegRecovery] != 0 {
			t.Fatalf("proc %d has recovery time without faults", i)
		}
	}
}

func TestSendDelayStretchesArrivalOnly(t *testing.T) {
	const d = 0.25
	k0, s0 := runPingPong(t, nil)
	k1, s1 := runPingPong(t, &scriptFaults{sendDelay: d})
	// Two delayed sends on the critical path: the makespan grows by 2d.
	if got, want := k1.MaxTime()-k0.MaxTime(), 2*d; math.Abs(got-want) > 1e-12 {
		t.Fatalf("makespan stretch = %v, want %v", got, want)
	}
	// Nobody is charged recovery for a pure delay: the receiver just idles.
	for i := range s1 {
		if s1[i].Seg[SegRecovery] != 0 {
			t.Fatalf("proc %d charged recovery %v for a delay", i, s1[i].Seg[SegRecovery])
		}
		if s1[i].Seg[SegIdle] <= s0[i].Seg[SegIdle] {
			t.Fatalf("proc %d idle did not grow under delay", i)
		}
	}
}

func TestResendChargedAsRecovery(t *testing.T) {
	const r = 0.125
	_, s := runPingPong(t, &scriptFaults{sendResend: r})
	if got := s[0].Seg[SegRecovery]; math.Abs(got-r) > 1e-12 {
		t.Fatalf("proc 0 recovery = %v, want %v (one resend)", got, r)
	}
	if got := s[1].Seg[SegRecovery]; math.Abs(got-r) > 1e-12 {
		t.Fatalf("proc 1 recovery = %v, want %v (one resend)", got, r)
	}
}

func TestCrashAndStragglerAttributedAsRecovery(t *testing.T) {
	fm := &scriptFaults{crash: 0.5, straggle: 0.0625}
	_, s := runPingPong(t, fm)
	// Proc 0 computes once and barriers once; proc 1 the same.
	for i := range s {
		want := 0.5 + 0.0625
		if got := s[i].Seg[SegRecovery]; math.Abs(got-want) > 1e-12 {
			t.Fatalf("proc %d recovery = %v, want %v", i, got, want)
		}
	}
	if fm.calls.compute != 2 || fm.calls.barrier != 2 || fm.calls.send != 2 {
		t.Fatalf("hook calls = %+v", fm.calls)
	}
}

func TestFaultedRunsDeterministic(t *testing.T) {
	// The same scripted schedule twice: identical makespan and stats.
	k1, s1 := runPingPong(t, &scriptFaults{sendDelay: 1e-3, sendResend: 1e-4, crash: 1e-2, straggle: 1e-3})
	k2, s2 := runPingPong(t, &scriptFaults{sendDelay: 1e-3, sendResend: 1e-4, crash: 1e-2, straggle: 1e-3})
	if k1.MaxTime() != k2.MaxTime() || s1 != s2 {
		t.Fatal("identical fault schedules produced different timelines")
	}
}

func TestSetFaultsWhileRunningPanics(t *testing.T) {
	k := NewKernel(nil, nil)
	k.NewProc("p", nil, func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("SetFaults during Run did not panic")
			}
		}()
		p.k.SetFaults(&scriptFaults{})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
