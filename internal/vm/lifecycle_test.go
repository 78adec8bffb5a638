package vm

import (
	"runtime"
	"testing"
	"time"
)

// settledGoroutines waits for exiting goroutines to be reaped and returns
// the count once it is at or below want (or after a bounded wait, so the
// caller's comparison fails with the real number).
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestRunReleasesProcsOnDeadlock: a kernel that ends in a DeadlockError
// must not leave its parked processes behind: one stuck in an
// unsatisfiable Recv, one in an incomplete Barrier, and one whose deferred
// call blocks again while it is being unwound.
func TestRunReleasesProcsOnDeadlock(t *testing.T) {
	base := runtime.NumGoroutine()
	unwound := 0
	for i := 0; i < 100; i++ {
		k := NewKernel(FixedCost{Overhead: 1e-6}, nil)
		k.NewProc("recv", nil, func(p *Proc) { p.RecvSrcTag(-1, -1) })
		k.NewProc("barrier", nil, func(p *Proc) { p.Barrier("never", 3) })
		k.NewProc("defer-send", nil, func(p *Proc) {
			defer func() {
				unwound++
				// "recv" sits in the ready heap at an earlier key once this
				// message is queued, so the Send has to yield — from a
				// process that is already being stopped.
				p.Send(0, 1, nil, 8)
				p.Send(0, 1, nil, 8)
				t.Error("Send returned in a stopped process")
			}()
			p.Elapse(1, SegOther)
			p.RecvSrcTag(0, 99)
		})
		if _, ok := k.Run().(*DeadlockError); !ok {
			t.Fatal("expected a deadlock")
		}
	}
	if unwound != 100 {
		t.Errorf("deferred calls ran in %d of 100 stopped processes", unwound)
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after 100 deadlocked kernels, %d before: process coroutines leaked", n, base)
	}
}

// TestTaskPanicPropagatesOutOfRun: a panic in a simulated task surfaces,
// with its original value, on the goroutine that called Run — where a
// caller's recover can isolate it — and takes the kernel's other
// processes down with it.
func TestTaskPanicPropagatesOutOfRun(t *testing.T) {
	type boom struct{ code int }
	base := runtime.NumGoroutine()
	unwound := false

	k := NewKernel(nil, nil)
	k.NewProc("bystander", nil, func(p *Proc) {
		defer func() { unwound = true }()
		p.RecvSrcTag(-1, -1)
	})
	k.NewProc("released", ConstRate(1), func(p *Proc) {
		p.Compute(1)
		p.Barrier("sync", 2)
	})
	k.NewProc("faulty", ConstRate(1), func(p *Proc) {
		p.Compute(2)
		p.Barrier("sync", 2) // last arriver: "released" is runnable, not yet run
		panic(boom{42})
	})

	var got any
	func() {
		defer func() { got = recover() }()
		err := k.Run()
		t.Errorf("Run returned %v; the task's panic was lost", err)
	}()
	if got != (boom{42}) {
		t.Fatalf("recovered %#v, want the task's own panic value %#v", got, boom{42})
	}
	if !unwound {
		t.Error("the blocked bystander was not unwound")
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after the panic, %d before: process coroutines leaked", n, base)
	}
	if k.running {
		t.Error("kernel still marked running after the panic")
	}
}
