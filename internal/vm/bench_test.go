package vm

import "testing"

// BenchmarkKernelHandoff prices the trip through the scheduler.  In a
// strict request/reply ping-pong each side's Recv finds its mailbox empty,
// so no fast path applies and the process parks: one op is two yields,
// i.e. four switches (process → kernel → process, twice).
func BenchmarkKernelHandoff(b *testing.B) {
	k := NewKernel(nil, nil)
	var payload any = "x"
	k.NewProc("client", nil, func(p *Proc) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Send(1, 1, payload, 64)
			p.Kernel().Recycle(p.RecvSrcTag(1, 2))
		}
		b.StopTimer()
	})
	k.NewProc("server", nil, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Kernel().Recycle(p.RecvSrcTag(0, 1))
			p.Send(0, 2, payload, 64)
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// barrierRound is one round of the barrier workloads: unequal compute, so
// members arrive spread out in virtual time, then an all-member barrier.
func barrierRound(p *Proc, parties int) {
	p.Compute(float64(1 + p.ID()))
	p.Barrier("round", parties)
}

// addBarrierMembers registers processes 1..parties-1 of a barrier workload,
// each doing rounds rounds; the caller registers process 0, which measures.
func addBarrierMembers(k *Kernel, parties, rounds int) {
	for id := 1; id < parties; id++ {
		k.NewProc("member", ConstRate(1e9), func(p *Proc) {
			for i := 0; i < rounds; i++ {
				barrierRound(p, parties)
			}
		})
	}
}

// BenchmarkKernelBarrier8 prices one 8-party barrier round: seven members
// park, the last arriver releases them, all eight are rescheduled.
func BenchmarkKernelBarrier8(b *testing.B) {
	const parties = 8
	k := NewKernel(FixedCost{SyncDelay: 1e-6}, nil)
	k.NewProc("timed", ConstRate(1e9), func(p *Proc) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			barrierRound(p, parties)
		}
		b.StopTimer()
	})
	addBarrierMembers(k, parties, b.N)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
