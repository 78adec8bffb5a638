package vm

import (
	"fmt"
	"testing"
)

// TestSharedChannelSerializesTransfers: two senders transmitting at the
// same instant occupy the channel back to back, not concurrently.
func TestSharedChannelSerializesTransfers(t *testing.T) {
	cm := FixedCost{Overhead: 1.0} // 1 s per transfer
	k := NewKernel(cm, nil)
	ends := make([]Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		k.NewProc(fmt.Sprintf("s%d", i), nil, func(p *Proc) {
			p.Send(2, i, nil, 0)
			ends[i] = p.Now()
		})
	}
	k.NewProc("r", nil, func(p *Proc) {
		p.RecvSrcTag(-1, -1)
		p.RecvSrcTag(-1, -1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// First sender (id 0) transfers [0,1]; second queues and transfers
	// [1,2].
	if ends[0] != 1 || ends[1] != 2 {
		t.Errorf("send ends = %v, want [1 2]", ends)
	}
}

// TestQueueingClassifiedAsIdle: the wait for the channel is idle time;
// only the transfer itself is communication.
func TestQueueingClassifiedAsIdle(t *testing.T) {
	cm := FixedCost{Overhead: 2.0}
	k := NewKernel(cm, nil)
	var stats Stats
	k.NewProc("first", nil, func(p *Proc) {
		p.Send(2, 0, nil, 0) // occupies [0,2]
	})
	k.NewProc("second", nil, func(p *Proc) {
		p.Send(2, 1, nil, 0) // queues [0,2], transfers [2,4]
		stats = p.Stats()
	})
	k.NewProc("r", nil, func(p *Proc) {
		p.RecvSrcTag(-1, -1)
		p.RecvSrcTag(-1, -1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEq(stats.Seg[SegIdle], 2) {
		t.Errorf("queueing idle = %v, want 2", stats.Seg[SegIdle])
	}
	if !almostEq(stats.Seg[SegComm], 2) {
		t.Errorf("transfer comm = %v, want 2", stats.Seg[SegComm])
	}
}

// TestZeroCostSendsDoNotContend: free messages (nil comm model) leave the
// channel untouched.
func TestZeroCostSendsDoNotContend(t *testing.T) {
	k := NewKernel(nil, nil)
	var end Time
	k.NewProc("s", nil, func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Send(1, i, nil, 1<<20)
		}
		end = p.Now()
	})
	k.NewProc("r", nil, func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.RecvSrcTag(-1, -1)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 0 {
		t.Errorf("zero-cost sends advanced the clock to %v", end)
	}
}

// TestSendCausalOrder: a process that has run far ahead in virtual time
// must not capture the channel before a slower process's earlier send —
// the yield-before-send rule.
func TestSendCausalOrder(t *testing.T) {
	cm := FixedCost{Overhead: 0.5}
	k := NewKernel(cm, nil)
	var lateArrival, earlyArrival Time
	k.NewProc("late", ConstRate(1), func(p *Proc) {
		p.Compute(100) // runs ahead to t=100 in one burst
		p.Send(2, 7, "late", 0)
	})
	k.NewProc("early", ConstRate(1), func(p *Proc) {
		p.Compute(1)
		p.Send(2, 7, "early", 0)
	})
	k.NewProc("r", nil, func(p *Proc) {
		m1 := p.RecvSrcTag(-1, -1)
		m2 := p.RecvSrcTag(-1, -1)
		if m1.Payload.(string) != "early" {
			t.Errorf("first delivery = %v, want early", m1.Payload)
		}
		earlyArrival, lateArrival = m1.Arrival, m2.Arrival
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Early sends [1, 1.5]; late sends [100, 100.5] — the early transfer
	// must not be pushed behind the late one.
	if !almostEq(earlyArrival, 1.5) {
		t.Errorf("early arrival = %v, want 1.5", earlyArrival)
	}
	if !almostEq(lateArrival, 100.5) {
		t.Errorf("late arrival = %v, want 100.5", lateArrival)
	}
}

// TestChannelGapIsNotCarriedForward: after the channel drains, a later
// send starts immediately at the sender's clock.
func TestChannelGapIsNotCarriedForward(t *testing.T) {
	cm := FixedCost{Overhead: 1}
	k := NewKernel(cm, nil)
	var end Time
	k.NewProc("s", ConstRate(1), func(p *Proc) {
		p.Send(1, 0, nil, 0) // [0,1]
		p.Compute(10)        // now 11
		p.Send(1, 1, nil, 0) // channel long free: [11,12]
		end = p.Now()
	})
	k.NewProc("r", nil, func(p *Proc) {
		p.RecvSrcTag(-1, -1)
		p.RecvSrcTag(-1, -1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEq(end, 12) {
		t.Errorf("end = %v, want 12", end)
	}
}

// TestManySendersFairSerialization: p senders firing together finish in
// id order at k*d each, and the makespan equals the total occupancy.
func TestManySendersFairSerialization(t *testing.T) {
	const p = 5
	const d = 0.25
	cm := FixedCost{Overhead: d}
	k := NewKernel(cm, nil)
	ends := make([]Time, p)
	for i := 0; i < p; i++ {
		i := i
		k.NewProc(fmt.Sprintf("s%d", i), nil, func(pr *Proc) {
			pr.Send(p, i, nil, 0)
			ends[i] = pr.Now()
		})
	}
	k.NewProc("sink", nil, func(pr *Proc) {
		for i := 0; i < p; i++ {
			pr.RecvSrcTag(-1, -1)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, e := range ends {
		if !almostEq(e, d*float64(i+1)) {
			t.Errorf("sender %d ends at %v, want %v", i, e, d*float64(i+1))
		}
	}
}
