package sciddle

import (
	"fmt"
	"math"
	"testing"

	"opalperf/internal/hpm"
	"opalperf/internal/platform"
	"opalperf/internal/pvm"
	"opalperf/internal/trace"
)

// echoService doubles a float and reports its instance.
func echoService() *Service {
	svc := NewService("echo")
	svc.Register("double", func(t pvm.Task, req *pvm.Buffer) *pvm.Buffer {
		x := req.MustFloat64()
		return pvm.NewBuffer().PackFloat64(2 * x).PackInt(t.Instance())
	})
	svc.Register("work", func(t pvm.Task, req *pvm.Buffer) *pvm.Buffer {
		flops := req.MustFloat64()
		t.SetWorkingSet(8 << 20) // in core: nominal rate
		t.Charge("work", hpm.Ops{Mul: flops})
		return pvm.NewBuffer().PackFloat64(flops)
	})
	return svc
}

func runClient(t *testing.T, pl func() *platform.Platform, nsrv int, accounting bool,
	client func(c *Conn)) (*pvm.SimVM, *trace.Recorder) {
	t.Helper()
	rec := trace.NewRecorder()
	s := pvm.NewSimVM(pl(), rec)
	s.SpawnRoot("client", func(ct pvm.Task) {
		tids := ct.Spawn("server", nsrv, func(st pvm.Task) {
			Serve(st, echoService(), ServeOptions{Accounting: accounting, Parties: nsrv + 1})
		})
		c := Connect(ct, tids)
		c.SetAccounting(accounting)
		client(c)
		c.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s, rec
}

// mustCall and mustPhase run one call / one single-float-argument call
// phase and fail the simulated client on a transport error, which the
// simulated fabric never produces.
func mustCall(c *Conn, i int, method string, args *pvm.Buffer) *pvm.Buffer {
	rep, err := c.Call(i, method, args)
	if err != nil {
		panic(err)
	}
	return rep
}

func mustPhase(c *Conn, method string, arg func(i int) float64) []*pvm.Buffer {
	replies, err := c.CallPhasePacked(method, func(i int, args *pvm.Buffer) { args.PackFloat64(arg(i)) })
	if err != nil {
		panic(err)
	}
	return replies
}

func TestSyncCall(t *testing.T) {
	runClient(t, platform.FastCoPs, 3, false, func(c *Conn) {
		for i := 0; i < c.NumServers(); i++ {
			rep := mustCall(c, i, "double", pvm.NewBuffer().PackFloat64(float64(i+1)))
			if got := rep.MustFloat64(); got != float64(2*(i+1)) {
				panic(fmt.Sprintf("server %d: %v", i, got))
			}
			if inst := rep.MustInt(); inst != i {
				panic(fmt.Sprintf("instance = %d, want %d", inst, i))
			}
		}
	})
}

func TestAsyncCallsOverlap(t *testing.T) {
	// In overlapped mode a phase on p servers each burning F flops takes
	// ~F/rate (plus comm), not p*F/rate: the servers run concurrently.
	const nsrv = 4
	flops := 67e6 // 1 virtual second on FastCoPs
	s, _ := runClient(t, platform.FastCoPs, nsrv, false, func(c *Conn) {
		replies := mustPhase(c, "work", func(int) float64 { return flops })
		if len(replies) != nsrv {
			panic("wrong reply count")
		}
	})
	if wall := s.Kernel.MaxTime(); wall < 0.9 || wall > 1.5 {
		t.Errorf("wall = %v, want ~1s (overlapped servers)", wall)
	}
}

func TestCallPhaseAccountingMode(t *testing.T) {
	const nsrv = 3
	flops := 67e6
	s, rec := runClient(t, platform.FastCoPs, nsrv, true, func(c *Conn) {
		for phase := 0; phase < 2; phase++ {
			mustPhase(c, "work", func(int) float64 { return flops })
		}
	})
	b := trace.ComputeBreakdown(rec, 0, []int{1, 2, 3}, s.Kernel.MaxTime())
	// Each server computes 2 x 1s.  The client's wait at the done barrier
	// equals the servers' parallel computation, which the breakdown
	// already accounts under ParComp, so Idle (the residual) stays near
	// zero for perfectly balanced servers.
	if b.ParComp < 1.9 || b.ParComp > 2.1 {
		t.Errorf("par comp = %v, want ~2", b.ParComp)
	}
	if b.Sync <= 0 {
		t.Error("accounting mode should record sync time")
	}
	if b.Idle > 0.05 {
		t.Errorf("idle = %v, want ~0 for balanced servers", b.Idle)
	}
	if math.Abs(b.Sum()-b.Wall) > 1e-9 {
		t.Errorf("accounted %v != wall %v", b.Sum(), b.Wall)
	}
}

func TestImbalanceSurfacesAsIdle(t *testing.T) {
	// Servers with unequal work: the client (and the fast servers) wait
	// for the slowest; the residual idle equals max-mean parallel time.
	const nsrv = 2
	s, rec := runClient(t, platform.FastCoPs, nsrv, true, func(c *Conn) {
		// Server 0: 1s, server 1: 3s.
		mustPhase(c, "work", func(i int) float64 { return 67e6 * float64(1+2*i) })
	})
	b := trace.ComputeBreakdown(rec, 0, []int{1, 2}, s.Kernel.MaxTime())
	if b.ParComp < 1.9 || b.ParComp > 2.1 {
		t.Errorf("mean par comp = %v, want ~2", b.ParComp)
	}
	if b.MaxParComp < 2.9 || b.MaxParComp > 3.1 {
		t.Errorf("max par comp = %v, want ~3", b.MaxParComp)
	}
	if b.Idle < 0.9 || b.Idle > 1.1 {
		t.Errorf("idle = %v, want ~1s (imbalance max-mean)", b.Idle)
	}
	if imb := b.Imbalance(); imb < 0.4 || imb > 0.6 {
		t.Errorf("imbalance = %v, want ~0.5", imb)
	}
}

func TestAccountingOverheadSmall(t *testing.T) {
	// The paper accepts <5% slowdown for accounting mode; with balanced
	// servers the overhead here is just the barrier costs.
	const nsrv = 4
	flops := 67e7 // 10 virtual seconds per server
	run := func(acct bool) float64 {
		s, _ := runClient(t, platform.FastCoPs, nsrv, acct, func(c *Conn) {
			mustPhase(c, "work", func(int) float64 { return flops })
		})
		return s.Kernel.MaxTime()
	}
	over, acct := run(false), run(true)
	if acct < over {
		t.Errorf("accounting run %v faster than overlapped %v", acct, over)
	}
	if (acct-over)/over > 0.05 {
		t.Errorf("accounting overhead %.2f%% exceeds the paper's 5%% bound",
			100*(acct-over)/over)
	}
}

// TestMethodStats: a phase over two servers and one call report three
// calls of one method, one flow each (before Close's stop calls), with
// the volumes the client sent and received.
func TestMethodStats(t *testing.T) {
	s, rec := runClient(t, platform.J90, 2, false, func(c *Conn) {
		mustPhase(c, "double", func(int) float64 { return 1 })
		mustCall(c, 0, "double", pvm.NewBuffer().PackFloat64(2))
		if len(c.stats) != 1 || c.stats["double"] == nil {
			panic(fmt.Sprintf("stats = %+v", c.stats))
		}
	})
	flows := rec.Flows()
	if len(flows) < 3 {
		t.Fatalf("flows = %+v, want 3 calls first", flows)
	}
	for _, f := range flows[:3] {
		if f.Method != "double" || f.Reply <= f.Issue {
			t.Errorf("flow = %+v", f)
		}
	}
	if st := s.Kernel.Proc(0).Stats(); st.BytesSent == 0 || st.BytesRecv == 0 {
		t.Errorf("client volumes not recorded: %+v", st)
	}
}

func TestStatsSeparatePerMethod(t *testing.T) {
	runClient(t, platform.J90, 1, false, func(c *Conn) {
		mustCall(c, 0, "double", pvm.NewBuffer().PackFloat64(1))
		mustCall(c, 0, "work", pvm.NewBuffer().PackFloat64(100))
		if n := len(c.stats); n != 2 {
			panic(fmt.Sprintf("methods = %d, want 2", n))
		}
	})
}

func TestUnknownMethodPanicsServerSide(t *testing.T) {
	s := pvm.NewSimVM(platform.J90(), nil)
	s.SpawnRoot("client", func(ct pvm.Task) {
		tids := ct.Spawn("server", 1, func(st pvm.Task) {
			defer func() {
				if recover() == nil {
					panic("expected panic for unknown method")
				}
			}()
			Serve(st, echoService(), ServeOptions{})
		})
		c := Connect(ct, tids)
		// Issue without collecting: the server dies; just end the client.
		c.issue(c.stat("no-such-method"), 0, pvm.NewBuffer(), nil)
	})
	// The server panics in its goroutine; the vm run may deadlock (client
	// gone, server dead) — both are acceptable ends for this negative
	// test, so only check we do not hang.
	defer func() { recover() }()
	_ = s.Run()
}

func TestDuplicateRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	svc := NewService("s")
	svc.Register("m", nil)
	svc.Register("m", nil)
}

func TestServerIndexOutOfRangePanics(t *testing.T) {
	runClient(t, platform.J90, 1, false, func(c *Conn) {
		defer func() {
			if recover() == nil {
				panic("expected panic for bad index")
			}
		}()
		c.Call(5, "double", nil)
	})
}

func TestServiceMethods(t *testing.T) {
	svc := echoService()
	if len(svc.entries) != 2 || svc.entries[0].method != "double" || svc.entries[1].method != "work" {
		t.Errorf("entries = %+v", svc.entries)
	}
}

func TestAccountingNeedsParties(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Serve(nil, echoService(), ServeOptions{Accounting: true, Parties: 1})
}

func TestJ90CommunicationDominatesSmallCalls(t *testing.T) {
	// On the J90's 10ms/3MB/s PVM, 10 empty-ish RPC round trips cost at
	// least 10 * 2 * 10ms of communication.
	s, _ := runClient(t, platform.J90, 1, false, func(c *Conn) {
		for i := 0; i < 10; i++ {
			mustCall(c, 0, "double", pvm.NewBuffer().PackFloat64(1))
		}
	})
	if s.Kernel.MaxTime() < 0.2 {
		t.Errorf("wall = %v, want >= 0.2s from per-message overheads", s.Kernel.MaxTime())
	}
}

func TestVolumeScalesWithPayload(t *testing.T) {
	s, _ := runClient(t, platform.J90, 1, false, func(c *Conn) {
		mustCall(c, 0, "double", pvm.NewBuffer().PackFloat64(1))
	})
	small := s.Kernel.Proc(0).Stats().BytesSent
	s, _ = runClient(t, platform.J90, 1, false, func(c *Conn) {
		mustCall(c, 0, "double", pvm.NewBuffer().PackFloat64(1))
		// Pad with a second call of the same method.
		mustCall(c, 0, "double", pvm.NewBuffer().PackFloat64(1))
	})
	big := s.Kernel.Proc(0).Stats().BytesSent
	if big <= small {
		t.Errorf("bytes out: %d then %d, want growth", small, big)
	}
}

func TestReplaceServerPreservesIndex(t *testing.T) {
	rec := trace.NewRecorder()
	s := pvm.NewSimVM(platform.FastCoPs(), rec)
	s.SpawnRoot("client", func(ct pvm.Task) {
		tids := ct.Spawn("server", 2, func(st pvm.Task) {
			Serve(st, echoService(), ServeOptions{})
		})
		c := Connect(ct, tids)
		rep := ct.Spawn("server-replacement", 1, func(st pvm.Task) {
			Serve(st, echoService(), ServeOptions{})
		})
		old := c.Server(1)
		c.ReplaceServer(1, rep[0])
		if c.NumServers() != 2 {
			panic("width changed by ReplaceServer")
		}
		if c.Server(1) != rep[0] || c.Server(0) != tids[0] {
			panic(fmt.Sprintf("servers = [%d %d], want [%d %d]", c.Server(0), c.Server(1), tids[0], rep[0]))
		}
		if old == c.Server(1) {
			panic("replacement TID equals the retired one")
		}
		// Calls through the replaced index reach the replacement (which,
		// as a singleton spawn, reports instance 0).
		b := mustCall(c, 1, "double", pvm.NewBuffer().PackFloat64(3))
		if got := b.MustFloat64(); got != 6 {
			panic(fmt.Sprintf("double via replacement = %v, want 6", got))
		}
		if inst := b.MustInt(); inst != 0 {
			panic(fmt.Sprintf("replacement instance = %d, want 0", inst))
		}
		// Close must also stop the retired server (via the dropped list)
		// or the simulation would never drain.
		c.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReplaceServerPanics(t *testing.T) {
	mustPanic := func(fn func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		fn()
		return
	}
	runClient(t, platform.FastCoPs, 2, true, func(c *Conn) {
		if !mustPanic(func() { c.ReplaceServer(0, 999) }) {
			panic("ReplaceServer under accounting did not panic")
		}
	})
	runClient(t, platform.FastCoPs, 2, false, func(c *Conn) {
		if !mustPanic(func() { c.ReplaceServer(2, 999) }) {
			panic("out-of-range ReplaceServer did not panic")
		}
	})
}
