package sciddle

import (
	"errors"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"opalperf/internal/platform"
	"opalperf/internal/pvm"
	"opalperf/internal/vm"
)

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

// TestReactorHandlerPanic: a handler that panics in a reactor server's
// step surfaces out of Run with its own value, whether the kernel stepped
// the server on its own stack (the client had already finished) or the
// client stepped it in place while waiting for the reply — in which case
// the client is unwound too.  No goroutine outlives either run.
func TestReactorHandlerPanic(t *testing.T) {
	type boom struct{ code int }
	for _, tc := range []struct {
		name  string
		await bool // the client waits for the reply
	}{
		{"kernel stack", false},
		{"client stack", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			svc := NewService("faulty")
			var where string // the stack the handler ran on
			svc.Register("noop", func(pvm.Task, *pvm.Buffer) *pvm.Buffer { return nil })
			svc.Register("boom", func(pvm.Task, *pvm.Buffer) *pvm.Buffer {
				switch stack := string(debug.Stack()); {
				case strings.Contains(stack, "stepReactors"):
					where = "client stack"
				case !strings.Contains(stack, "startProc"):
					where = "kernel stack"
				default:
					where = "server coroutine"
				}
				panic(boom{3})
			})
			unwound := false
			s := pvm.NewSimVM(platform.J90(), nil)
			s.SpawnRoot("client", func(ct pvm.Task) {
				defer func() { unwound = true }()
				tids := ct.Spawn("server", 1, func(st pvm.Task) { Serve(st, svc, ServeOptions{}) })
				c := Connect(ct, tids)
				// The first call starts the server, which then parks as a
				// reactor; the second one panics in a step.
				mustCall(c, 0, "noop", nil)
				st := c.stat("boom")
				k := c.issue(st, 0, pvm.NewBuffer(), nil)
				if tc.await {
					c.collect(st, k)
				}
			})
			var got any
			func() {
				defer func() { got = recover() }()
				err := s.Run()
				t.Errorf("Run returned %v; the handler's panic was lost", err)
			}()
			if got != (boom{3}) {
				t.Fatalf("recovered %#v, want the handler's own value %#v", got, boom{3})
			}
			if where != tc.name {
				t.Errorf("the handler ran on the %s, want the %s", where, tc.name)
			}
			if !unwound {
				t.Error("the client was not unwound")
			}
			if n := settledGoroutines(base); n > base {
				t.Fatalf("%d goroutines after Run, %d before", n, base)
			}
		})
	}
}

// TestReactorDeadlock: a client that waits for a message nobody sends,
// with its servers parked as reactors in their receive loops, ends Run in
// a DeadlockError naming every party, and leaves no goroutine behind.
func TestReactorDeadlock(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		s := pvm.NewSimVM(platform.J90(), nil)
		s.SpawnRoot("client", func(ct pvm.Task) {
			tids := ct.Spawn("server", 3, func(st pvm.Task) { Serve(st, echoService(), ServeOptions{}) })
			c := Connect(ct, tids)
			mustPhase(c, "double", func(i int) float64 { return float64(i) })
			ct.Recv(pvm.AnySrc, 99)
		})
		var deadlock *vm.DeadlockError
		if err := s.Run(); !errors.As(err, &deadlock) {
			t.Fatalf("Run returned %v, want a deadlock", err)
		}
		if len(deadlock.States) != 4 || strings.Count(deadlock.Error(), ": recv") != 4 {
			t.Fatalf("deadlock report %q, want the client and three servers in recv", deadlock.Error())
		}
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after 20 deadlocked sessions, %d before", n, base)
	}
}
