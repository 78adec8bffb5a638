package vm

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// mallocsPerOp runs op warm times to fill freelists and backing arrays,
// then measured more times, and returns the heap objects allocated per
// measured op.
func mallocsPerOp(warm, measured int, op func()) float64 {
	for i := 0; i < warm; i++ {
		op()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < measured; i++ {
		op()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(measured)
}

// TestMessagingSteadyStateAllocs is the message-freelist audit: once the
// freelist and mailboxes are warm, a request/reply exchange must not
// allocate — Messages are recycled through Kernel.Recycle, the ready
// heap reuses its backing array, and receive matching for the (src, tag)
// shape is inline.  A regression here silently turns every simulated
// message into garbage-collector load, which is exactly what the
// scenario-throughput gate would pay for.
func TestMessagingSteadyStateAllocs(t *testing.T) {
	const warm, measured = 200, 1000
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	cm := FixedCost{Overhead: 1e-6, ByteRate: 1e9, Latency: 1e-6}
	k := NewKernel(cm, nil)
	var payload any = "x" // constant payload: boxing allocates nothing
	var perExchange float64
	k.NewProc("client", nil, func(p *Proc) {
		perExchange = mallocsPerOp(warm, measured, func() {
			p.Send(1, 1, payload, 64)
			m := p.RecvSrcTag(1, 2)
			p.Kernel().Recycle(m)
		})
	})
	k.NewProc("server", nil, func(p *Proc) {
		for i := 0; i < warm+measured; i++ {
			m := p.RecvSrcTag(0, 1)
			pl := m.Payload
			p.Kernel().Recycle(m)
			p.Send(0, 2, pl, 64)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// The budget tolerates stray runtime bookkeeping but not a per-message
	// allocation (which would show up as >= 2 here: one per direction).
	if perExchange > 0.1 {
		t.Fatalf("steady-state request/reply exchange allocates %.3f objects; the message freelist is leaking", perExchange)
	}
}

// TestBarrierSteadyStateAllocs is the same audit for synchronization: once
// the barrier freelist, its member slices and the ready heap are warm, an
// 8-party Barrier round — seven parks, one release, eight reschedules —
// must not allocate.
func TestBarrierSteadyStateAllocs(t *testing.T) {
	const parties, warm, measured = 8, 200, 1000
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	k := NewKernel(FixedCost{SyncDelay: 1e-6}, nil)
	var perRound float64
	k.NewProc("sampler", ConstRate(1e9), func(p *Proc) {
		perRound = mallocsPerOp(warm, measured, func() { barrierRound(p, parties) })
	})
	addBarrierMembers(k, parties, warm+measured)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if perRound > 0.1 {
		t.Fatalf("steady-state %d-party barrier round allocates %.3f objects", parties, perRound)
	}
}

// TestReactorSteadyStateAllocs is the same audit for reactor processes: a
// request/reply exchange with a reactor server and an 8-party barrier
// round with seven reactor members, both stepped in place on the
// measuring coroutine's stack, must not allocate once warm.
func TestReactorSteadyStateAllocs(t *testing.T) {
	const parties, warm, measured = 8, 200, 1000
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	k := NewKernel(FixedCost{Overhead: 1e-6, ByteRate: 1e9, Latency: 1e-6}, nil)
	var payload any = "x"
	var perExchange float64
	k.NewProc("client", nil, func(p *Proc) {
		perExchange = mallocsPerOp(warm, measured, func() {
			p.Send(1, 1, payload, 64)
			p.Kernel().Recycle(p.RecvSrcTag(1, 2))
		})
	})
	k.NewProc("server", nil, func(p *Proc) { p.React(echoReactor(0, 1, 2, warm+measured)) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	k = NewKernel(FixedCost{SyncDelay: 1e-6}, nil)
	var perRound float64
	k.NewProc("sampler", ConstRate(1e9), func(p *Proc) {
		perRound = mallocsPerOp(warm, measured, func() { barrierRound(p, parties) })
	})
	addReactorMembers(k, parties, warm+measured)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if perExchange > 0.1 || perRound > 0.1 {
		t.Fatalf("steady state allocates %.3f objects per exchange with a reactor server, %.3f per %d-party round with reactor members",
			perExchange, perRound, parties)
	}
}
