package pvm

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"opalperf/internal/fault"
	"opalperf/internal/hpm"
	"opalperf/internal/platform"
	"opalperf/internal/vm"
)

// workCall is a test handler: it declares a working set, charges ops and
// then calls then, if set, against its task.
type workCall struct {
	gate Gate
	ws   int
	ops  hpm.Ops
	then func(Task)
}

func (c *workCall) Run(t Task) int {
	t.SetWorkingSet(c.ws)
	t.Charge("work", c.ops)
	if c.then != nil {
		c.then(t)
	}
	return c.ws
}

func (c *workCall) Gate() *Gate { return &c.gate }

// zeroFloor makes every (server, method) pair run ahead after its first
// call, whatever its length.
func zeroFloor(tb testing.TB) {
	floor := aheadFloor
	aheadFloor = 0
	tb.Cleanup(func() { aheadFloor = floor })
}

// spareCore gives the session a helper even under -cpu 1.
func spareCore(tb testing.TB) {
	if procs := runtime.GOMAXPROCS(0); procs < 2 {
		runtime.GOMAXPROCS(2)
		tb.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	}
}

// firstCall runs c's first call, timed in place: with a floor of zero,
// every later call starts ahead.
func firstCall(st Task, c *workCall) {
	if StartAhead(st, c) {
		FinishAhead(st)
	} else {
		c.Run(st)
	}
}

// helperTakes spins until the helper has taken the call started on t.
func helperTakes(t Task) {
	l := &t.(*simTask).ahead
	for deadline := time.Now().Add(10 * time.Second); l.state.Load() == lanePosted; runtime.Gosched() {
		if time.Now().After(deadline) {
			panic("the helper never took the started call")
		}
	}
}

// settledGoroutines waits for exiting goroutines to be reaped and returns
// the count once it is at or below want, or after a bounded wait.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// workload runs calls handlers of varied size on one task under a seeded
// fault plan whose compute faults draw on every Charge.  With ahead set,
// each call after the first starts ahead; on odd calls the task waits for
// the helper to take it, on even ones it claims the call straight away.
func workload(ahead bool, calls int) (*SimVM, vm.Stats, *hpm.Counter, float64) {
	s := NewSimVM(platform.J90(), nil)
	s.SetFaults(fault.NewPlan(fault.Config{Seed: 5, CrashRate: 0.3}))
	var ctr *hpm.Counter
	var now float64
	tid := s.SpawnRoot("server", func(t Task) {
		c := &workCall{}
		for i := 0; i < calls; i++ {
			c.ws = 1 << (10 + i%14)
			c.ops = hpm.Ops{Add: float64(1000 * (i + 1)), Mul: float64(37 * i)}
			if ahead && StartAhead(t, c) {
				if i%2 == 1 {
					helperTakes(t)
				}
				t.(*simTask).proc.Elapse(1e-6, vm.SegOther)
				if got := t.(*simTask).ahead.finish(); got != c.ws {
					panic(fmt.Sprintf("call %d returned %d, want %d", i, got, c.ws))
				}
			} else {
				t.(*simTask).proc.Elapse(1e-6, vm.SegOther)
				c.Run(t)
			}
		}
		ctr, now = t.Monitor().Counter("work"), t.Now()
	})
	if err := s.Run(); err != nil {
		panic(err)
	}
	return s, s.Kernel.Proc(tid).Stats(), ctr, now
}

// TestAheadReplayMatchesInPlace: handlers that ran ahead and were
// replayed leave clocks, Stats, hpm counters and the fault plan's draws
// exactly where running them in place does — whether the helper ran a
// call or its server claimed it first.
func TestAheadReplayMatchesInPlace(t *testing.T) {
	zeroFloor(t)
	spareCore(t)
	_, refStats, refCtr, refNow := workload(false, 40)
	s, gotStats, gotCtr, gotNow := workload(true, 40)
	if s.AheadRuns() == 0 {
		t.Fatal("no call ran on the helper; the test is vacuous")
	}
	if math.Float64bits(refNow) != math.Float64bits(gotNow) {
		t.Fatalf("clock %v after run-ahead, %v in place", gotNow, refNow)
	}
	if gotStats != refStats {
		t.Fatalf("Stats differ:\nahead    %+v\nin place %+v", gotStats, refStats)
	}
	if *gotCtr != *refCtr {
		t.Fatalf("hpm counter differs:\nahead    %+v\nin place %+v", *gotCtr, *refCtr)
	}
	if refStats.Seg[vm.SegRecovery] == 0 {
		t.Fatal("the fault plan drew no compute fault; the test does not pin the draw order")
	}
}

// TestAheadTaskRefusesKernel: a handler running ahead sees its server's
// identity, and any method that would touch the kernel panics with
// ErrAheadTask.
func TestAheadTaskRefusesKernel(t *testing.T) {
	s := NewSimVM(platform.J90(), nil)
	st := s.Task(s.SpawnRoot("server", func(Task) {})).(*simTask)
	st.instance = 3
	a := &aheadTask{t: st}
	if a.TID() != st.TID() || a.Parent() != -1 || a.Name() != "server" || a.Instance() != 3 {
		t.Fatalf("identity: tid %d parent %d name %q instance %d", a.TID(), a.Parent(), a.Name(), a.Instance())
	}
	for name, call := range map[string]func(){
		"Send":        func() { a.Send(0, 1, NewBuffer()) },
		"Mcast":       func() { a.Mcast([]int{0}, 1, NewBuffer()) },
		"Recv":        func() { a.Recv(AnySrc, AnyTag) },
		"RecvTimeout": func() { a.RecvTimeout(AnySrc, AnyTag, time.Second) },
		"Probe":       func() { a.Probe(AnySrc, AnyTag) },
		"Barrier":     func() { a.Barrier("b", 2) },
		"Spawn":       func() { a.Spawn("x", 1, func(Task) {}) },
		"Now":         func() { a.Now() },
		"Monitor":     func() { a.Monitor() },
	} {
		func() {
			defer func() {
				err, _ := recover().(error)
				if !errors.Is(err, ErrAheadTask) {
					t.Errorf("%s: recovered %v, want ErrAheadTask", name, err)
				}
			}()
			call()
		}()
	}
}

// TestAheadPanicReraisedAtClaim: a handler that panics on the helper
// re-raises its own value on its server's coroutine when the server
// claims it, and so out of Run — after the charges it made before
// panicking were replayed — and the helper is gone once Run returns.
func TestAheadPanicReraisedAtClaim(t *testing.T) {
	zeroFloor(t)
	spareCore(t)
	type boom struct{ code int }
	base := runtime.NumGoroutine()
	s := NewSimVM(platform.J90(), nil)
	var charged float64
	s.SpawnRoot("server", func(st Task) {
		c := &workCall{ws: 1 << 12, ops: hpm.Ops{Add: 1e6}}
		firstCall(st, c)
		c.then = func(Task) { panic(boom{7}) }
		if !StartAhead(st, c) {
			panic("run-ahead did not engage")
		}
		helperTakes(st)
		defer func() { charged = st.Monitor().Counter("work").Canonical }()
		FinishAhead(st)
	})
	var got any
	func() {
		defer func() { got = recover() }()
		err := s.Run()
		t.Errorf("Run returned %v; the handler's panic was lost", err)
	}()
	if got != (boom{7}) {
		t.Fatalf("recovered %#v, want the handler's own value %#v", got, boom{7})
	}
	if charged != 2e6 {
		t.Errorf("%g flops charged before the panic surfaced, want both calls' 2e6", charged)
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after Run, %d before: the helper outlived the session", n, base)
	}
}

// TestRunStopsHelper: however Run ends — done, in a DeadlockError, or
// with a task's panic — no handler started ahead is still running and
// the helper has exited.  Each session leaves a call running on the
// helper (a slow one) and another posted behind it when the run ends.
// Under -cpu 1 the sessions have no helper and run everything in place.
func TestRunStopsHelper(t *testing.T) {
	zeroFloor(t)
	base := runtime.NumGoroutine()
	slow := func(Task) { time.Sleep(2 * time.Millisecond) }
	for _, end := range []string{"done", "deadlock", "panic"} {
		for i := 0; i < 20; i++ {
			s := NewSimVM(platform.J90(), nil)
			for k := 0; k < 2; k++ {
				s.SpawnRoot("server", func(st Task) {
					c := &workCall{ws: 64, ops: hpm.Ops{Add: 10}}
					firstCall(st, c)
					c.then = slow
					ahead := StartAhead(st, c)
					switch end {
					case "done":
						if ahead {
							FinishAhead(st)
						} else {
							c.Run(st)
						}
					case "deadlock":
						st.Recv(AnySrc, AnyTag)
					case "panic":
						if k == 1 {
							panic("task down")
						}
						st.Recv(AnySrc, AnyTag)
					}
				})
			}
			var err error
			var pv any
			func() {
				defer func() { pv = recover() }()
				err = s.Run()
			}()
			var deadlock *vm.DeadlockError
			switch {
			case end == "done" && (err != nil || pv != nil),
				end == "deadlock" && !errors.As(err, &deadlock),
				end == "panic" && pv != "task down":
				t.Fatalf("%s: Run returned %v, panicked with %v", end, err, pv)
			}
		}
		if n := settledGoroutines(base); n > base {
			t.Fatalf("%s: %d goroutines after 20 sessions, %d before", end, n, base)
		}
	}
}

// BenchmarkAheadHandoff prices the handoff behind aheadFloor.  "claim"
// is what a started call costs its server when the server claims it
// before the helper does: the post and the claim.  "roundtrip" is the
// helper's latency from a post to a finished no-op call, from parked:
// a handler shorter than that cannot run ahead of a server that needs it
// next, and one not many times longer gains little for the CPU the wake
// costs.
func BenchmarkAheadHandoff(b *testing.B) {
	zeroFloor(b)
	spareCore(b)
	for _, name := range []string{"claim", "roundtrip"} {
		b.Run(name, func(b *testing.B) {
			s := NewSimVM(platform.J90(), nil)
			s.SpawnRoot("server", func(st Task) {
				c := &workCall{}
				firstCall(st, c)
				l := &st.(*simTask).ahead
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					StartAhead(st, c)
					if name == "roundtrip" {
						for l.state.Load() != laneDone {
						}
					}
					FinishAhead(st)
				}
				b.StopTimer()
			})
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
