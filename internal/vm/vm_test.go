package vm

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestComputeAdvancesClock(t *testing.T) {
	k := NewKernel(nil, nil)
	var end Time
	k.NewProc("p", ConstRate(100), func(p *Proc) {
		p.Compute(500)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEq(end, 5.0) {
		t.Fatalf("end = %v, want 5.0", end)
	}
}

func TestComputeZeroAndNegative(t *testing.T) {
	k := NewKernel(nil, nil)
	k.NewProc("p", ConstRate(100), func(p *Proc) {
		p.Compute(0)
		p.Compute(-3)
		if p.Now() != 0 {
			t.Errorf("clock moved on zero/negative flops: %v", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestElapseNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative Elapse")
		}
	}()
	p := &Proc{k: NewKernel(nil, nil)}
	p.Elapse(-1, SegOther)
}

func TestSendRecvTiming(t *testing.T) {
	cm := FixedCost{Overhead: 0.1, ByteRate: 1000, Latency: 0.05}
	k := NewKernel(cm, nil)
	var recvAt, senderEnd Time
	a := k.NewProc("a", nil, func(p *Proc) {
		p.Send(1, 7, "hi", 100) // busy = 0.1 + 100/1000 = 0.2
		senderEnd = p.Now()
	})
	k.NewProc("b", nil, func(p *Proc) {
		m := p.Recv(MatchSrcTag(a.ID(), 7))
		if m.Payload.(string) != "hi" {
			t.Errorf("payload = %v", m.Payload)
		}
		recvAt = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEq(senderEnd, 0.2) {
		t.Errorf("sender end = %v, want 0.2", senderEnd)
	}
	// arrival = 0.2 + latency 0.05
	if !almostEq(recvAt, 0.25) {
		t.Errorf("recv at = %v, want 0.25", recvAt)
	}
}

func TestRecvIdleAccounting(t *testing.T) {
	cm := FixedCost{Overhead: 1}
	k := NewKernel(cm, nil)
	var idle float64
	k.NewProc("sender", ConstRate(1), func(p *Proc) {
		p.Compute(10) // busy until t=10
		p.Send(1, 0, nil, 0)
	})
	k.NewProc("recv", nil, func(p *Proc) {
		p.Recv(nil)
		idle = p.Stats().Seg[SegIdle]
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Receiver waits from t=0 to arrival t=11.
	if !almostEq(idle, 11) {
		t.Errorf("idle = %v, want 11", idle)
	}
}

// TestEarliestMessageWins checks that a receive delivers the globally
// earliest matching message even when a slower process enqueues first.
func TestEarliestMessageWins(t *testing.T) {
	k := NewKernel(FixedCost{Overhead: 0.01}, nil)
	var first string
	k.NewProc("late", ConstRate(1), func(p *Proc) {
		p.Compute(100) // sends at t=100
		p.Send(2, 0, "late", 0)
	})
	k.NewProc("early", ConstRate(1), func(p *Proc) {
		p.Compute(1) // sends at t=1
		p.Send(2, 0, "early", 0)
	})
	k.NewProc("recv", nil, func(p *Proc) {
		m := p.Recv(nil)
		first = m.Payload.(string)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if first != "early" {
		t.Errorf("first message = %q, want early", first)
	}
}

func TestTieBreakBySequence(t *testing.T) {
	// Two messages arriving at the identical time are delivered in send
	// order, deterministically.
	k := NewKernel(nil, nil) // zero-cost comm: both arrive at t=0
	var order []string
	k.NewProc("s", nil, func(p *Proc) {
		p.Send(1, 0, "first", 0)
		p.Send(1, 0, "second", 0)
	})
	k.NewProc("r", nil, func(p *Proc) {
		order = append(order, p.Recv(nil).Payload.(string))
		order = append(order, p.Recv(nil).Payload.(string))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != "first" || order[1] != "second" {
		t.Errorf("order = %v", order)
	}
}

func TestMatchSrcTagWildcards(t *testing.T) {
	m := &Message{Src: 3, Tag: 9}
	cases := []struct {
		src, tag int
		want     bool
	}{
		{3, 9, true}, {-1, 9, true}, {3, -1, true}, {-1, -1, true},
		{2, 9, false}, {3, 8, false},
	}
	for _, c := range cases {
		if got := MatchSrcTag(c.src, c.tag)(m); got != c.want {
			t.Errorf("MatchSrcTag(%d,%d) = %v, want %v", c.src, c.tag, got, c.want)
		}
	}
}

func TestBarrierReleaseAndAccounting(t *testing.T) {
	cm := FixedCost{SyncDelay: 0.5}
	k := NewKernel(cm, nil)
	ends := make([]Time, 3)
	idles := make([]float64, 3)
	syncs := make([]float64, 3)
	for i := 0; i < 3; i++ {
		i := i
		k.NewProc(fmt.Sprintf("p%d", i), ConstRate(1), func(p *Proc) {
			p.Compute(float64(i+1) * 10) // arrive at 10, 20, 30
			p.Barrier("b", 3)
			ends[i] = p.Now()
			idles[i] = p.Stats().Seg[SegIdle]
			syncs[i] = p.Stats().Seg[SegSync]
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, e := range ends {
		if !almostEq(e, 30.5) {
			t.Errorf("proc %d released at %v, want 30.5", i, e)
		}
		if !almostEq(syncs[i], 0.5) {
			t.Errorf("proc %d sync = %v, want 0.5", i, syncs[i])
		}
	}
	if !almostEq(idles[0], 20) || !almostEq(idles[1], 10) || !almostEq(idles[2], 0) {
		t.Errorf("idles = %v, want [20 10 0]", idles)
	}
}

func TestBarrierReusableKey(t *testing.T) {
	k := NewKernel(nil, nil)
	for i := 0; i < 2; i++ {
		k.NewProc(fmt.Sprintf("p%d", i), ConstRate(1), func(p *Proc) {
			for it := 0; it < 5; it++ {
				p.Compute(1)
				p.Barrier("loop", 2)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierPartyMismatchPanics(t *testing.T) {
	k := NewKernel(nil, nil)
	k.NewProc("a", nil, func(p *Proc) { p.Barrier("x", 2) })
	k.NewProc("b", nil, func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on party mismatch")
			}
			// Complete the barrier properly so Run terminates.
			p.Barrier("x", 2)
		}()
		p.Barrier("x", 3)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel(nil, nil)
	k.NewProc("waiter", nil, func(p *Proc) {
		p.Recv(nil) // nobody ever sends
	})
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.States) != 1 {
		t.Errorf("states = %v", de.States)
	}
}

func TestDeadlockIncompleteBarrier(t *testing.T) {
	k := NewKernel(nil, nil)
	k.NewProc("a", nil, func(p *Proc) { p.Barrier("never", 2) })
	k.NewProc("b", nil, func(p *Proc) {})
	if _, ok := k.Run().(*DeadlockError); !ok {
		t.Fatal("expected deadlock from incomplete barrier")
	}
}

func TestSpawnDuringRun(t *testing.T) {
	k := NewKernel(FixedCost{Overhead: 0.5}, nil)
	var childTime Time
	k.NewProc("parent", ConstRate(1), func(p *Proc) {
		p.Compute(3)
		id := p.Spawn("child", ConstRate(1), func(q *Proc) {
			if q.Now() != 3 {
				t.Errorf("child starts at %v, want 3", q.Now())
			}
			q.Compute(2)
			childTime = q.Now()
			q.Send(p.ID(), 1, nil, 0)
		})
		m := p.Recv(MatchSrcTag(id, 1))
		_ = m
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEq(childTime, 5) {
		t.Errorf("child time = %v, want 5", childTime)
	}
}

func TestSendToUnknownProcPanics(t *testing.T) {
	k := NewKernel(nil, nil)
	k.NewProc("p", nil, func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic sending to unknown proc")
			}
		}()
		p.Send(42, 0, nil, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProbe(t *testing.T) {
	k := NewKernel(nil, nil)
	k.NewProc("s", nil, func(p *Proc) { p.Send(1, 5, nil, 0) })
	k.NewProc("r", nil, func(p *Proc) {
		// Force the sender to run first by receiving its message.
		if p.Probe(MatchSrcTag(-1, 6)) {
			t.Error("probe matched wrong tag")
		}
		m := p.Recv(MatchSrcTag(-1, 5))
		if m.Tag != 5 {
			t.Errorf("tag = %d", m.Tag)
		}
		if p.Probe(nil) {
			t.Error("probe matched on empty mailbox")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounters(t *testing.T) {
	k := NewKernel(FixedCost{Overhead: 0.1, ByteRate: 100}, nil)
	var sent, recvd Stats
	k.NewProc("s", ConstRate(10), func(p *Proc) {
		p.Compute(5)
		p.Send(1, 0, nil, 50)
		p.Send(1, 0, nil, 30)
		sent = p.Stats()
	})
	k.NewProc("r", nil, func(p *Proc) {
		p.Recv(nil)
		p.Recv(nil)
		recvd = p.Stats()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sent.MsgsSent != 2 || sent.BytesSent != 80 {
		t.Errorf("sent stats = %+v", sent)
	}
	if recvd.MsgsRecv != 2 || recvd.BytesRecv != 80 {
		t.Errorf("recv stats = %+v", recvd)
	}
	if sent.Flops != 5 {
		t.Errorf("flops = %v", sent.Flops)
	}
	if !almostEq(sent.Seg[SegCompute], 0.5) {
		t.Errorf("compute seg = %v", sent.Seg[SegCompute])
	}
	// Each send: 0.1 + bytes/100.
	if !almostEq(sent.Seg[SegComm], 0.1+0.5+0.1+0.3) {
		t.Errorf("comm seg = %v", sent.Seg[SegComm])
	}
}

type segRec struct {
	proc  int
	kind  SegKind
	start Time
	end   Time
}

type recTracer struct{ segs []segRec }

func (r *recTracer) Segment(proc int, name string, kind SegKind, start, end Time) {
	r.segs = append(r.segs, segRec{proc, kind, start, end})
}

func TestTracerReceivesSegments(t *testing.T) {
	tr := &recTracer{}
	k := NewKernel(FixedCost{Overhead: 0.2}, tr)
	k.NewProc("a", ConstRate(1), func(p *Proc) {
		p.Compute(1)
		p.Send(1, 0, nil, 0)
	})
	k.NewProc("b", nil, func(p *Proc) { p.Recv(nil) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var kinds []SegKind
	for _, s := range tr.segs {
		kinds = append(kinds, s.kind)
		if s.end <= s.start {
			t.Errorf("empty segment recorded: %+v", s)
		}
	}
	want := []SegKind{SegCompute, SegComm, SegIdle}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("kind[%d] = %v, want %v", i, kinds[i], want[i])
		}
	}
}

// TestDeterminism runs an irregular workload twice and demands identical
// final clocks — the kernel's core guarantee.
func TestDeterminism(t *testing.T) {
	run := func() []Time {
		k := NewKernel(FixedCost{Overhead: 0.001, ByteRate: 1e6, SyncDelay: 0.01}, nil)
		const n = 5
		for i := 0; i < n; i++ {
			i := i
			k.NewProc(fmt.Sprintf("w%d", i), ConstRate(1e3), func(p *Proc) {
				for it := 0; it < 10; it++ {
					p.Compute(float64((i*7+it*13)%50 + 1))
					p.Send((i+1)%n, it, nil, (i*31+it)%1000)
					p.Recv(MatchSrcTag(-1, it))
					p.Barrier(fmt.Sprintf("it%d", it), n)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		var times []Time
		for _, p := range k.Procs() {
			times = append(times, p.Now())
		}
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: run1[%d]=%v run2[%d]=%v", i, a[i], i, b[i])
		}
	}
}

// Property: for any sequence of compute charges the final clock equals the
// sum of the individual durations (no time is lost or double counted).
func TestComputeAdditivityProperty(t *testing.T) {
	f := func(durations []uint16) bool {
		k := NewKernel(nil, nil)
		var got Time
		k.NewProc("p", ConstRate(1000), func(p *Proc) {
			for _, d := range durations {
				p.Compute(float64(d))
			}
			got = p.Now()
		})
		if err := k.Run(); err != nil {
			return false
		}
		var want float64
		for _, d := range durations {
			want += float64(d) / 1000
		}
		return almostEq(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: messages between a single sender and receiver are delivered in
// send order whenever costs are uniform (FIFO per link).
func TestFIFODeliveryProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		k := NewKernel(FixedCost{Overhead: 0.01, ByteRate: 100}, nil)
		n := len(sizes)
		k.NewProc("s", nil, func(p *Proc) {
			for i, sz := range sizes {
				p.Send(1, 0, i, int(sz))
			}
		})
		ok := true
		k.NewProc("r", nil, func(p *Proc) {
			for i := 0; i < n; i++ {
				m := p.Recv(nil)
				if m.Payload.(int) != i {
					ok = false
				}
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSegKindString(t *testing.T) {
	if SegCompute.String() != "compute" || SegIdle.String() != "idle" {
		t.Error("SegKind strings wrong")
	}
	if SegKind(99).String() != "SegKind(99)" {
		t.Error("out-of-range SegKind string wrong")
	}
}

func TestWorkingSetAffectsRate(t *testing.T) {
	// A compute model that halves the rate beyond 1000 bytes.
	cm := computeFn(func(flops float64, ws int) float64 {
		r := 100.0
		if ws > 1000 {
			r = 50
		}
		return flops / r
	})
	k := NewKernel(nil, nil)
	k.NewProc("p", cm, func(p *Proc) {
		p.Compute(100) // 1s
		p.SetWorkingSet(2000)
		if p.WorkingSet() != 2000 {
			t.Error("working set not stored")
		}
		p.Compute(100) // 2s
		if !almostEq(p.Now(), 3) {
			t.Errorf("now = %v, want 3", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

type computeFn func(float64, int) float64

func (f computeFn) Seconds(flops float64, ws int) float64 { return f(flops, ws) }

func TestMaxTime(t *testing.T) {
	k := NewKernel(nil, nil)
	k.NewProc("a", ConstRate(1), func(p *Proc) { p.Compute(5) })
	k.NewProc("b", ConstRate(1), func(p *Proc) { p.Compute(9) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEq(k.MaxTime(), 9) {
		t.Errorf("MaxTime = %v", k.MaxTime())
	}
}

// Property: classified time never exceeds a process's clock, times are
// monotone, and segments never overlap within one process.
func TestAccountingCompletenessProperty(t *testing.T) {
	tr := &recTracer{}
	k := NewKernel(FixedCost{Overhead: 0.01, ByteRate: 1e5, SyncDelay: 0.02}, tr)
	const n = 4
	for i := 0; i < n; i++ {
		i := i
		k.NewProc(fmt.Sprintf("p%d", i), ConstRate(1e3), func(p *Proc) {
			for it := 0; it < 6; it++ {
				p.Compute(float64((i*13+it*7)%40 + 1))
				p.Send((i+1)%n, it, nil, (i*97+it*31)%500)
				p.Recv(MatchSrcTag(-1, it))
				p.Barrier(fmt.Sprintf("b%d", it), n)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, p := range k.Procs() {
		var busy float64
		for _, v := range p.Stats().Seg {
			busy += v
		}
		if busy > p.Now()+1e-9 {
			t.Errorf("proc %d: busy %v exceeds clock %v", p.ID(), busy, p.Now())
		}
	}
	// Per-process segments are disjoint and ordered.
	byProc := map[int][]segRec{}
	for _, s := range tr.segs {
		byProc[s.proc] = append(byProc[s.proc], s)
	}
	for id, segs := range byProc {
		for i := 1; i < len(segs); i++ {
			if segs[i].start < segs[i-1].end-1e-12 {
				t.Fatalf("proc %d: segment %d overlaps previous (%v < %v)",
					id, i, segs[i].start, segs[i-1].end)
			}
		}
	}
}
