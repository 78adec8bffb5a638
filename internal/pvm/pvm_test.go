package pvm

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"opalperf/internal/hpm"
	"opalperf/internal/platform"
	"opalperf/internal/trace"
)

func TestBufferPackUnpackRoundTrip(t *testing.T) {
	b := NewBuffer().
		PackFloat64s([]float64{1.5, 2.5}).
		PackInt(42).
		PackString("nbint").
		PackBytes([]byte{9, 8}).
		PackFloat64(3.25)
	r := b.reader()
	xs, err := r.UnpackFloat64s()
	if err != nil || len(xs) != 2 || xs[0] != 1.5 || xs[1] != 2.5 {
		t.Fatalf("floats = %v, %v", xs, err)
	}
	n, err := r.UnpackInt()
	if err != nil || n != 42 {
		t.Fatalf("int = %v, %v", n, err)
	}
	s, err := r.UnpackString()
	if err != nil || s != "nbint" {
		t.Fatalf("string = %q, %v", s, err)
	}
	raw, err := r.UnpackBytes()
	if err != nil || len(raw) != 2 || raw[0] != 9 {
		t.Fatalf("bytes = %v, %v", raw, err)
	}
	x, err := r.UnpackFloat64()
	if err != nil || x != 3.25 {
		t.Fatalf("float = %v, %v", x, err)
	}
	if _, err := r.UnpackInt(); err == nil {
		t.Fatal("expected error unpacking past end")
	}
}

func TestBufferTypeMismatch(t *testing.T) {
	b := NewBuffer().PackInt(1)
	if _, err := b.reader().UnpackFloat64s(); err == nil {
		t.Fatal("expected type mismatch error")
	}
}

func TestBufferPackCopies(t *testing.T) {
	xs := []float64{1, 2, 3}
	b := NewBuffer().PackFloat64s(xs)
	xs[0] = 99 // sender reuses its array
	got := b.reader().MustFloat64s()
	if got[0] != 1 {
		t.Error("pack did not copy sender data")
	}
	// Unpack copies too: mutating the unpacked slice must not affect a
	// second reader (multicast case).
	got[1] = 77
	again := b.reader().MustFloat64s()
	if again[1] != 2 {
		t.Error("unpack did not copy message data")
	}
}

func TestBufferUnpackInto(t *testing.T) {
	b := NewBuffer().PackFloat64s([]float64{1, 2, 3})
	dst := make([]float64, 3)
	if err := b.reader().UnpackFloat64sInto(dst); err != nil {
		t.Fatal(err)
	}
	if dst[2] != 3 {
		t.Errorf("dst = %v", dst)
	}
	bad := make([]float64, 2)
	if err := b.reader().UnpackFloat64sInto(bad); err == nil {
		t.Fatal("expected length error")
	}
}

func TestBufferScalarArityErrors(t *testing.T) {
	b := NewBuffer().PackFloat64s([]float64{1, 2})
	if _, err := b.reader().UnpackFloat64(); err == nil {
		t.Fatal("expected scalar arity error")
	}
	b2 := NewBuffer().PackInt64s([]int64{1, 2})
	if _, err := b2.reader().UnpackInt(); err == nil {
		t.Fatal("expected scalar arity error")
	}
}

func TestBufferBytesAccounting(t *testing.T) {
	b := NewBuffer().PackFloat64s(make([]float64, 10)).PackString("ab")
	// 4+80 + 4+2
	if got := b.Bytes(); got != 90 {
		t.Errorf("bytes = %d, want 90", got)
	}
	if b.Items() != 2 {
		t.Errorf("items = %d", b.Items())
	}
}

func TestMustPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuffer().reader().MustInt()
}

// Property: any packed sequence of float slices round-trips exactly.
func TestBufferRoundTripProperty(t *testing.T) {
	f := func(groups [][]float64) bool {
		b := NewBuffer()
		for _, g := range groups {
			b.PackFloat64s(g)
		}
		r := b.reader()
		for _, g := range groups {
			got, err := r.UnpackFloat64s()
			if err != nil || len(got) != len(g) {
				return false
			}
			for i := range g {
				// NaN-safe bitwise comparison is unnecessary here:
				// quick never generates NaN for float64.
				if got[i] != g[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// fabrics is the conformance table: every way a Task's messages can travel.
// A program written against the Task interface must behave the same on
// the simulated fabric, on a network session whose tasks are all local
// (delivery never touches the wire) and across two sessions, where every
// message, barrier and spawn goes through the daemon.
var fabrics = []struct {
	name string
	run  func(t *testing.T, root func(Task))
}{
	{"sim", func(t *testing.T, root func(Task)) {
		s := NewSimVM(platform.J90(), nil)
		s.SpawnRoot("root", root)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}},
	{"local", func(t *testing.T, root func(Task)) {
		_, a, _ := tcpPair(t)
		a.SpawnRoot("root", root)
		a.Wait()
	}},
	{"daemon", func(t *testing.T, root func(Task)) {
		_, a, b := tcpPair(t)
		a.SpawnRoot("root", func(task Task) { root(remoteSpawner{task, b}) })
		a.Wait()
		b.Wait()
	}},
}

// remoteSpawner makes a program's spawns land on another session: it
// registers the spawn function there under the spawn's name first, the
// way a pvm_spawn executable is installed on a remote host.
type remoteSpawner struct {
	Task
	host *TCPVM
}

func (r remoteSpawner) Spawn(name string, n int, fn func(Task)) []int {
	r.host.RegisterSpawn(name, fn)
	return r.Task.Spawn(name, n, fn)
}

// runFabrics executes a PVM program on every fabric of the table.  A
// program reports failure by panicking.
func runFabrics(t *testing.T, name string, root func(Task)) {
	t.Helper()
	for _, f := range fabrics {
		t.Run(name+"/"+f.name, func(t *testing.T) { f.run(t, root) })
	}
}

func TestSendRecvBothFabrics(t *testing.T) {
	runFabrics(t, "echo", func(root Task) {
		tids := root.Spawn("echo", 1, func(srv Task) {
			b, src, tag := srv.Recv(AnySrc, 7)
			x := b.MustFloat64()
			srv.Send(src, tag+1, NewBuffer().PackFloat64(x*2))
		})
		root.Send(tids[0], 7, NewBuffer().PackFloat64(21))
		rep, src, tag := root.Recv(tids[0], 8)
		if got := rep.MustFloat64(); got != 42 {
			panic(fmt.Sprintf("reply = %v", got))
		}
		if src != tids[0] || tag != 8 {
			panic("wrong reply envelope")
		}
	})
}

func TestSpawnInstanceAndParent(t *testing.T) {
	runFabrics(t, "spawn", func(root Task) {
		const n = 4
		var mu sync.Mutex
		seen := map[int]bool{}
		tids := root.Spawn("w", n, func(w Task) {
			mu.Lock()
			seen[w.Instance()] = true
			mu.Unlock()
			if w.Parent() != root.TID() {
				panic("wrong parent")
			}
			w.Send(w.Parent(), 1, NewBuffer().PackInt(w.Instance()))
		})
		if len(tids) != n {
			panic("wrong tid count")
		}
		for i := 0; i < n; i++ {
			root.Recv(AnySrc, 1)
		}
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < n; i++ {
			if !seen[i] {
				panic(fmt.Sprintf("instance %d missing", i))
			}
		}
	})
}

func TestMcastBothFabrics(t *testing.T) {
	runFabrics(t, "mcast", func(root Task) {
		const n = 3
		tids := root.Spawn("w", n, func(w Task) {
			b, _, _ := w.Recv(AnySrc, 2)
			v := b.MustFloat64()
			w.Send(w.Parent(), 3, NewBuffer().PackFloat64(v+float64(w.Instance())))
		})
		root.Mcast(tids, 2, NewBuffer().PackFloat64(100))
		sum := 0.0
		for i := 0; i < n; i++ {
			b, _, _ := root.Recv(AnySrc, 3)
			sum += b.MustFloat64()
		}
		if sum != 303 {
			panic(fmt.Sprintf("sum = %v", sum))
		}
	})
}

func TestBarrierBothFabrics(t *testing.T) {
	runFabrics(t, "barrier", func(root Task) {
		const n = 3
		root.Spawn("w", n, func(w Task) {
			for it := 0; it < 4; it++ {
				w.Barrier("step", n+1)
			}
			w.Send(w.Parent(), 9, NewBuffer().PackInt(1))
		})
		for it := 0; it < 4; it++ {
			root.Barrier("step", n+1)
		}
		for i := 0; i < n; i++ {
			root.Recv(AnySrc, 9)
		}
	})
}

func TestProbeBothFabrics(t *testing.T) {
	runFabrics(t, "probe", func(root Task) {
		tids := root.Spawn("w", 1, func(w Task) {
			w.Send(w.Parent(), 5, NewBuffer().PackInt(1))
		})
		// Block until the message is definitely queued.
		b, _, _ := root.Recv(tids[0], 5)
		_ = b
		if root.Probe(AnySrc, AnyTag) {
			panic("probe matched after consuming the only message")
		}
	})
}

func TestSimChargeAdvancesVirtualTime(t *testing.T) {
	pl := platform.FastCoPs()
	s := NewSimVM(pl, nil)
	var now float64
	var mon *hpm.Monitor
	s.SpawnRoot("c", func(task Task) {
		task.SetWorkingSet(8 << 20)
		task.Charge("kernel", hpm.Ops{Add: 67e6})
		now = task.Now()
		mon = task.Monitor()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if now < 0.99 || now > 1.01 {
		t.Errorf("virtual time = %v, want ~1s (67 MFlop at 67 MFlop/s)", now)
	}
	if mon.Counter("kernel").Canonical != 67e6 {
		t.Errorf("counter = %+v", mon.Counter("kernel"))
	}
	if s.Kernel.MaxTime() != now {
		t.Errorf("session time %v != task time %v", s.Kernel.MaxTime(), now)
	}
}

func TestSimCommunicationCost(t *testing.T) {
	pl := platform.J90() // 3 MB/s, 10 ms
	s := NewSimVM(pl, nil)
	var sendEnd float64
	s.SpawnRoot("c", func(task Task) {
		tids := task.Spawn("srv", 1, func(w Task) {
			w.Recv(AnySrc, AnyTag)
		})
		task.Send(tids[0], 1, NewBuffer().PackFloat64s(make([]float64, 375000))) // 3 MB
		sendEnd = task.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 3 MB at 3 MB/s + 10 ms = ~1.01 s.
	if sendEnd < 1.0 || sendEnd > 1.03 {
		t.Errorf("send end = %v, want ~1.01", sendEnd)
	}
}

func TestSimTraceIntegration(t *testing.T) {
	rec := trace.NewRecorder()
	s := NewSimVM(platform.SMPCoPs(), rec)
	s.SpawnRoot("client", func(c Task) {
		tids := c.Spawn("server", 2, func(w Task) {
			w.Recv(AnySrc, 1)
			w.Charge("work", hpm.Ops{Mul: 65e6})
			w.Send(w.Parent(), 2, NewBuffer().PackInt(1))
		})
		c.Mcast(tids, 1, NewBuffer().PackInt(0))
		for range tids {
			c.Recv(AnySrc, 2)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	b := trace.ComputeBreakdown(rec, 0, []int{1, 2}, s.Kernel.MaxTime())
	if b.ParComp <= 0.9 || b.ParComp >= 1.1 {
		t.Errorf("par comp = %v, want ~1s", b.ParComp)
	}
	// Balanced servers: the client's wait is fully accounted as parallel
	// computation plus the reply transfers, so the idle residual is tiny.
	if b.Idle > 0.05*b.Wall {
		t.Errorf("idle residual = %v for balanced servers", b.Idle)
	}
	if b.Comm <= 0 {
		t.Error("no communication recorded")
	}
}

func TestRecvWildcardsAllFabrics(t *testing.T) {
	runFabrics(t, "wildcards", func(root Task) {
		tids := root.Spawn("w", 2, func(w Task) {
			// Each worker sends tag 10 then tag 20+instance, after the go
			// message, so the root's mailbox order is not its match order.
			w.Recv(w.Parent(), 1)
			w.Send(w.Parent(), 10, NewBuffer().PackInt(w.Instance()))
			w.Send(w.Parent(), 20+w.Instance(), NewBuffer().PackInt(w.Instance()))
		})
		root.Mcast(tids, 1, NewBuffer())
		// (src, AnyTag): per-source order is send order.
		if b, src, tag := root.Recv(tids[1], AnyTag); src != tids[1] || tag != 10 || b.MustInt() != 1 {
			panic(fmt.Sprintf("(src, AnyTag) matched src %d tag %d", src, tag))
		}
		// (AnySrc, tag): skips everything queued under other tags.
		if _, src, tag := root.Recv(AnySrc, 20); src != tids[0] || tag != 20 {
			panic(fmt.Sprintf("(AnySrc, 20) matched src %d tag %d", src, tag))
		}
		// (AnySrc, AnyTag) drains the rest: tag 10 from worker 0 and tag
		// 21 from worker 1, in either order.
		got := map[[2]int]bool{}
		for i := 0; i < 2; i++ {
			_, src, tag := root.Recv(AnySrc, AnyTag)
			got[[2]int{src, tag}] = true
		}
		if !got[[2]int{tids[0], 10}] || !got[[2]int{tids[1], 21}] {
			panic(fmt.Sprintf("wildcard drain = %v", got))
		}
	})
}

func TestRecvTimeoutNonPositiveWaitsAllFabrics(t *testing.T) {
	// d <= 0 means "no deadline" on every fabric: the call blocks until
	// the message exists and returns it without an error.
	runFabrics(t, "nodeadline", func(root Task) {
		waits := []time.Duration{0, -time.Second}
		tids := root.Spawn("w", 1, func(w Task) {
			for range waits {
				w.Recv(w.Parent(), 1)
				w.Send(w.Parent(), 2, NewBuffer().PackInt(7))
			}
		})
		for _, d := range waits {
			root.Send(tids[0], 1, NewBuffer())
			b, src, tag, err := root.RecvTimeout(tids[0], 2, d)
			if err != nil || src != tids[0] || tag != 2 || b.MustInt() != 7 {
				panic(fmt.Sprintf("RecvTimeout(%v) = src %d tag %d err %v", d, src, tag, err))
			}
		}
	})
}

// Real goroutines on a loopback session: the workers genuinely run in
// parallel, which is what the race detector is pointed at.
func TestTCPLoopbackRealParallelism(t *testing.T) {
	_, a, _ := tcpPair(t)
	results := make([]float64, 4)
	a.SpawnRoot("root", func(root Task) {
		tids := root.Spawn("sq", 4, func(w Task) {
			b, _, _ := w.Recv(AnySrc, 1)
			x := b.MustFloat64()
			w.Charge("sq", hpm.Ops{Mul: 1})
			w.Send(w.Parent(), 2, NewBuffer().PackFloat64(x*x).PackInt(w.Instance()))
		})
		for i, tid := range tids {
			root.Send(tid, 1, NewBuffer().PackFloat64(float64(i+1)))
		}
		for range tids {
			b, _, _ := root.Recv(AnySrc, 2)
			v := b.MustFloat64()
			idx := b.MustInt()
			results[idx] = v
		}
	})
	a.Wait()
	want := []float64{1, 4, 9, 16}
	for i := range want {
		if results[i] != want[i] {
			t.Errorf("results[%d] = %v, want %v", i, results[i], want[i])
		}
	}
}

func TestSimDeadlockSurfacesAsError(t *testing.T) {
	s := NewSimVM(platform.J90(), nil)
	s.SpawnRoot("stuck", func(task Task) {
		task.Recv(AnySrc, AnyTag)
	})
	if err := s.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestSimTaskLookup(t *testing.T) {
	s := NewSimVM(platform.J90(), nil)
	tid := s.SpawnRoot("r", func(task Task) {})
	if s.Task(tid) == nil {
		t.Fatal("root task not found")
	}
	if s.Task(99) != nil {
		t.Fatal("phantom task found")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
