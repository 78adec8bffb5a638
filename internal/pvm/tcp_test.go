package pvm

import (
	"errors"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"opalperf/internal/fault"
	"opalperf/internal/hpm"
)

func TestWireRoundTrip(t *testing.T) {
	b := NewBuffer().
		PackFloat64s([]float64{1.5, -2.25, 1e300}).
		PackInt(-42).
		PackInt64s([]int64{1, -2, 3}).
		PackString("nbint").
		PackBytes([]byte{0, 255, 7}).
		PackFloat64(3.14)
	wire, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Buffer
	if err := got.UnmarshalBinary(wire); err != nil {
		t.Fatal(err)
	}
	r := got.Reader()
	xs := r.MustFloat64s()
	if xs[0] != 1.5 || xs[1] != -2.25 || xs[2] != 1e300 {
		t.Errorf("floats = %v", xs)
	}
	if r.MustInt() != -42 {
		t.Error("int wrong")
	}
	is, _ := r.UnpackInt64s()
	if is[1] != -2 {
		t.Errorf("int64s = %v", is)
	}
	if r.MustString() != "nbint" {
		t.Error("string wrong")
	}
	raw, _ := r.UnpackBytes()
	if raw[1] != 255 {
		t.Errorf("bytes = %v", raw)
	}
	if r.MustFloat64() != 3.14 {
		t.Error("scalar wrong")
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	var b Buffer
	cases := [][]byte{
		nil,
		{0, 0},
		{0, 0, 0, 1},                 // one item, no header
		{0, 0, 0, 1, 0, 0, 0, 0, 9},  // truncated float payload
		{0, 0, 0, 1, 99, 0, 0, 0, 0}, // unknown kind
	}
	for i, c := range cases {
		if err := b.UnmarshalBinary(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Trailing junk.
	good, _ := NewBuffer().PackInt(1).MarshalBinary()
	if err := b.UnmarshalBinary(append(good, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// Property: wire round trip preserves arbitrary float payloads.
func TestWireRoundTripProperty(t *testing.T) {
	f := func(xs []float64, s string) bool {
		b := NewBuffer().PackFloat64s(xs).PackString(s)
		wire, err := b.MarshalBinary()
		if err != nil {
			return false
		}
		var got Buffer
		if err := got.UnmarshalBinary(wire); err != nil {
			return false
		}
		ys := got.Reader().MustFloat64s()
		if len(ys) != len(xs) {
			return false
		}
		for i := range xs {
			// NaN-safe: compare bit patterns via equality of both NaN.
			if ys[i] != xs[i] && !(ys[i] != ys[i] && xs[i] != xs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// tcpPair starts a daemon and two sessions, tearing everything down at
// test end.
func tcpPair(t *testing.T) (*Daemon, *TCPVM, *TCPVM) {
	t.Helper()
	d, err := NewDaemon("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a, err := ConnectTCP(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ConnectTCP(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Close()
		b.Close()
		d.Close()
	})
	return d, a, b
}

func TestTCPEchoAcrossSessions(t *testing.T) {
	_, a, b := tcpPair(t)
	ready := make(chan int, 1)
	b.SpawnRoot("echo", func(task Task) {
		ready <- task.TID()
		buf, src, tag := task.Recv(AnySrc, 7)
		x := buf.MustFloat64()
		task.Send(src, tag+1, NewBuffer().PackFloat64(x*2))
	})
	echoTID := <-ready
	got := make(chan float64, 1)
	a.SpawnRoot("client", func(task Task) {
		task.Send(echoTID, 7, NewBuffer().PackFloat64(21))
		rep, _, _ := task.Recv(echoTID, 8)
		got <- rep.MustFloat64()
	})
	if v := <-got; v != 42 {
		t.Fatalf("echo reply = %v", v)
	}
	a.Wait()
	b.Wait()
}

func TestTCPBarrierAcrossSessions(t *testing.T) {
	_, a, b := tcpPair(t)
	var mu sync.Mutex
	order := []string{}
	record := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	a.SpawnRoot("a", func(task Task) {
		record("a-before")
		task.Barrier("sync", 2)
		record("a-after")
	})
	b.SpawnRoot("b", func(task Task) {
		record("b-before")
		task.Barrier("sync", 2)
		record("b-after")
	})
	a.Wait()
	b.Wait()
	mu.Lock()
	defer mu.Unlock()
	// Both befores precede both afters.
	seenAfter := false
	for _, s := range order {
		if s == "a-after" || s == "b-after" {
			seenAfter = true
		} else if seenAfter {
			t.Fatalf("barrier did not hold: %v", order)
		}
	}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
}

func TestTCPRemoteSpawn(t *testing.T) {
	_, a, b := tcpPair(t)
	// Session b registers as the host for "worker".
	b.RegisterSpawn("worker", func(task Task) {
		buf, src, _ := task.Recv(AnySrc, 1)
		x := buf.MustFloat64()
		task.Send(src, 2, NewBuffer().PackFloat64(x+float64(task.Instance())))
	})
	sum := make(chan float64, 1)
	a.SpawnRoot("client", func(task Task) {
		tids := task.Spawn("worker", 3, func(Task) {
			panic("local fallback must not run when a remote host exists")
		})
		if len(tids) != 3 {
			panic("wrong spawn count")
		}
		for _, tid := range tids {
			task.Send(tid, 1, NewBuffer().PackFloat64(10))
		}
		var s float64
		for range tids {
			rep, _, _ := task.Recv(AnySrc, 2)
			s += rep.MustFloat64()
		}
		sum <- s
	})
	if v := <-sum; v != 33 { // 10+0 + 10+1 + 10+2
		t.Fatalf("sum = %v", v)
	}
	a.Wait()
	b.Wait()
}

func TestTCPLocalFallbackSpawn(t *testing.T) {
	_, a, _ := tcpPair(t)
	done := make(chan int, 1)
	a.SpawnRoot("client", func(task Task) {
		tids := task.Spawn("unregistered", 2, func(w Task) {
			w.Send(w.Parent(), 1, NewBuffer().PackInt(w.Instance()))
		})
		got := 0
		for range tids {
			rep, _, _ := task.Recv(AnySrc, 1)
			got += rep.MustInt() + 1
		}
		done <- got
	})
	if v := <-done; v != 3 { // (0+1)+(1+1)
		t.Fatalf("got = %v", v)
	}
}

func TestTCPLocalFastPath(t *testing.T) {
	// Messages between tasks of the same session do not cross the wire.
	_, a, _ := tcpPair(t)
	done := make(chan bool, 1)
	a.SpawnRoot("r1", func(task Task) {
		tids := task.Spawn("r2", 1, func(w Task) {
			buf, src, _ := w.Recv(AnySrc, 5)
			w.Send(src, 6, buf.Reader())
		})
		big := make([]float64, 10000)
		big[9999] = 7
		task.Send(tids[0], 5, NewBuffer().PackFloat64s(big))
		rep, _, _ := task.Recv(tids[0], 6)
		xs := rep.MustFloat64s()
		done <- xs[9999] == 7
	})
	if !<-done {
		t.Fatal("local fast path corrupted payload")
	}
}

func TestTCPChargeAndMonitor(t *testing.T) {
	_, a, _ := tcpPair(t)
	done := make(chan float64, 1)
	a.SpawnRoot("worker", func(task Task) {
		task.Charge("k", hpm.Ops{Add: 1000})
		done <- task.Monitor().Counter("k").Canonical
	})
	if v := <-done; v != 1000 {
		t.Fatalf("canonical = %v", v)
	}
}

// TestTCPParallelOpalStyle runs a miniature client-server round across
// two OS-level sessions: init data out, partial results back — the
// network-PVM path Opal would take on a real cluster.
func TestTCPParallelOpalStyle(t *testing.T) {
	_, a, b := tcpPair(t)
	b.RegisterSpawn("nb-server", func(task Task) {
		init, _, _ := task.Recv(AnySrc, 10)
		charges := init.MustFloat64s()
		for {
			msg, src, tag := task.Recv(AnySrc, AnyTag)
			if tag == 99 {
				return
			}
			coords := msg.MustFloat64s()
			// Toy partial energy: sum of q_i * x_i over this server's
			// stripe.
			var e float64
			for i := task.Instance(); i < len(charges); i += 2 {
				e += charges[i] * coords[3*i]
			}
			task.Send(src, 12, NewBuffer().PackFloat64(e))
		}
	})
	result := make(chan float64, 1)
	a.SpawnRoot("client", func(task Task) {
		tids := task.Spawn("nb-server", 2, nil)
		charges := []float64{1, 2, 3, 4}
		coords := []float64{1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0}
		task.Mcast(tids, 10, NewBuffer().PackFloat64s(charges))
		for step := 0; step < 3; step++ {
			task.Mcast(tids, 11, NewBuffer().PackFloat64s(coords))
			var e float64
			for range tids {
				rep, _, _ := task.Recv(AnySrc, 12)
				e += rep.MustFloat64()
			}
			if step == 2 {
				result <- e
			}
		}
		task.Mcast(tids, 99, NewBuffer())
	})
	if v := <-result; v != 10 { // 1+2+3+4
		t.Fatalf("energy = %v, want 10", v)
	}
	a.Wait()
	b.Wait()
}

func TestConnectTCPFailsOnDeadAddress(t *testing.T) {
	if _, err := ConnectTCP("127.0.0.1:1"); err == nil {
		t.Fatal("connecting to a dead port should fail")
	}
}

func TestDaemonCloseIsIdempotentAndRejectsLate(t *testing.T) {
	d, err := NewDaemon("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := d.Addr()
	d.Close()
	d.Close() // idempotent
	if _, err := ConnectTCP(addr); err == nil {
		t.Fatal("connecting to a closed daemon should fail")
	}
}

func TestTCPSessionCloseIdempotent(t *testing.T) {
	d, _ := NewDaemon("127.0.0.1:0")
	defer d.Close()
	v, err := ConnectTCP(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	v.Close()
	v.Close() // must not panic or double-send Bye
}

func TestTCPMessageToUnknownTIDIsDropped(t *testing.T) {
	_, a, _ := tcpPair(t)
	done := make(chan bool, 1)
	a.SpawnRoot("r", func(task Task) {
		// A send to a TID in a session range nobody owns is silently
		// dropped by the daemon (like a message to a dead PVM task); the
		// sender must not wedge.
		task.Send(99*sessionStride+1, 1, NewBuffer().PackInt(1))
		done <- true
	})
	if !<-done {
		t.Fatal("sender blocked")
	}
}

// A spawn reply whose TID count the body cannot hold is a broken
// connection: the session must not size a slice from the wire count
// first.  One 8-byte body claiming 2^20 TIDs would otherwise cost 8 MiB
// (2^32-1 of them, 32 GiB).
func TestSpawnReplyCountBoundedByBody(t *testing.T) {
	v := &TCPVM{tasks: map[int]*tcpTask{}, barriers: map[string]*tcpBarrier{}, spawnRep: map[int]chan spawnReply{}}
	ours, theirs := net.Pipe()
	go func() {
		writeFrame(theirs, frameSpawnRep, appendU32(appendU32(nil, 0), 1<<20))
		theirs.Close()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v.readLoop(ours)
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Fatalf("one hostile spawn reply allocated %d bytes", d)
	}
}

// A spawn forwarded with a count past the host session's task ids starts
// no task there — neither 2^20 goroutines nor any under the next
// session's TIDs — and the requester's Spawn fails with ErrTaskRange.  The
// local fallback refuses the same way.
func TestSpawnPastTaskRangeRefused(t *testing.T) {
	_, a, b := tcpPair(t)
	var started atomic.Int32
	b.RegisterSpawn("srv", func(Task) { started.Add(1) })
	spawn := func(name string, n int) error {
		got := make(chan error, 1)
		a.SpawnRoot("req", func(task Task) {
			defer func() {
				err, _ := recover().(error)
				got <- err
			}()
			task.Spawn(name, n, func(Task) { started.Add(1) })
		})
		return <-got
	}
	if err := spawn("srv", 1<<20); !errors.Is(err, ErrTaskRange) {
		t.Fatalf("forwarded spawn of 2^20 tasks: %v, want ErrTaskRange", err)
	}
	if err := spawn("unhosted", sessionStride); !errors.Is(err, ErrTaskRange) {
		t.Fatalf("local spawn past the range: %v, want ErrTaskRange", err)
	}
	b.mu.Lock()
	hosted, claimed := len(b.tasks), b.nextTask
	b.mu.Unlock()
	if n := started.Load(); n != 0 || hosted != 0 || claimed != 0 {
		t.Fatalf("refused spawns started %d tasks (host holds %d, claimed %d ids)", n, hosted, claimed)
	}
}

// waitGoroutinesBack polls until the goroutine count returns to within
// slack of base, failing the test after 5s.  A manual stand-in for a
// leak-checker dependency: the transport's readers, reconnectors and
// heartbeats must all exit on session teardown.
func waitGoroutinesBack(t *testing.T, base, slack int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d > base %d + slack %d\n%s", n, base, slack, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// killableDialer dials normally but remembers the most recent conn so a
// test can sever it and force the reconnect path.
type killableDialer struct {
	mu   sync.Mutex
	last net.Conn
}

func (k *killableDialer) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	k.mu.Lock()
	k.last = c
	k.mu.Unlock()
	return c, nil
}

func (k *killableDialer) kill() {
	k.mu.Lock()
	c := k.last
	k.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// TestTCPResumeAfterConnKill severs a session's TCP connection mid-run.
// The session must reconnect, resume its id, and deliver both the
// messages queued during the outage and those sent after it.
func TestTCPResumeAfterConnKill(t *testing.T) {
	d, err := NewDaemon("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	kd := &killableDialer{}
	a, err := ConnectTCPOpts(d.Addr(), TCPOptions{Dial: kd.dial})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ConnectTCP(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	aReady := make(chan int, 1)
	got := make(chan float64, 2)
	a.SpawnRoot("receiver", func(task Task) {
		aReady <- task.TID()
		for i := 0; i < 2; i++ {
			buf, _, _ := task.Recv(AnySrc, 7)
			got <- buf.MustFloat64()
		}
	})
	aTID := <-aReady

	// Sever a's connection.  The daemon detaches the session; b's sends
	// queue up server-side until a resumes.
	kd.kill()
	b.SpawnRoot("sender", func(task Task) {
		task.Send(aTID, 7, NewBuffer().PackFloat64(1.5))
		task.Send(aTID, 7, NewBuffer().PackFloat64(2.5))
	})
	sum := 0.0
	for i := 0; i < 2; i++ {
		select {
		case v := <-got:
			sum += v
		case <-time.After(10 * time.Second):
			t.Fatalf("message %d lost across reconnect (session err: %v)", i, a.Err())
		}
	}
	if sum != 4 {
		t.Fatalf("sum = %v, want 4", sum)
	}
	if err := a.Err(); err != nil {
		t.Fatalf("session marked dead after successful resume: %v", err)
	}
	a.Wait()
	b.Wait()
}

// TestTCPResumeKeepsClientQueuedSends: frames the client wrote while
// disconnected replay to the daemon on resume.
func TestTCPResumeKeepsClientQueuedSends(t *testing.T) {
	d, err := NewDaemon("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	kd := &killableDialer{}
	a, err := ConnectTCPOpts(d.Addr(), TCPOptions{Dial: kd.dial})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ConnectTCP(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	bReady := make(chan int, 1)
	got := make(chan float64, 1)
	b.SpawnRoot("receiver", func(task Task) {
		bReady <- task.TID()
		buf, _, _ := task.Recv(AnySrc, 9)
		got <- buf.MustFloat64()
	})
	bTID := <-bReady

	kd.kill()
	a.SpawnRoot("sender", func(task Task) {
		// Likely written into the outage window; must survive via replay.
		task.Send(bTID, 9, NewBuffer().PackFloat64(6.25))
	})
	select {
	case v := <-got:
		if v != 6.25 {
			t.Fatalf("payload = %v", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("send during outage lost (session err: %v)", a.Err())
	}
	a.Wait()
	b.Wait()
}

// TestTCPFaultDialerPartialWrites runs a full echo exchange over
// connections that fragment every write into tiny chunks: the frame
// decoder must reassemble streams regardless of write boundaries.
func TestTCPFaultDialerPartialWrites(t *testing.T) {
	d, err := NewDaemon("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dial := fault.Dialer(fault.NetConfig{Seed: 11, PartialWriteRate: 1, MaxChunk: 3})
	a, err := ConnectTCPOpts(d.Addr(), TCPOptions{Dial: dial})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ConnectTCPOpts(d.Addr(), TCPOptions{Dial: dial})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	ready := make(chan int, 1)
	b.SpawnRoot("echo", func(task Task) {
		ready <- task.TID()
		buf, src, _ := task.Recv(AnySrc, 3)
		task.Send(src, 4, NewBuffer().PackFloat64s(buf.MustFloat64s()))
	})
	echoTID := <-ready
	got := make(chan []float64, 1)
	a.SpawnRoot("client", func(task Task) {
		xs := make([]float64, 300)
		for i := range xs {
			xs[i] = float64(i) / 7
		}
		task.Send(echoTID, 3, NewBuffer().PackFloat64s(xs))
		rep, _, _ := task.Recv(echoTID, 4)
		got <- rep.MustFloat64s()
	})
	select {
	case xs := <-got:
		if len(xs) != 300 || xs[299] != 299.0/7 {
			t.Fatalf("payload corrupted: len=%d", len(xs))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("echo lost under partial writes")
	}
	a.Wait()
	b.Wait()
}

// TestTCPRecvTimeoutExpires: with no matching message, RecvTimeout
// returns ErrRecvTimeout after roughly the requested window.
func TestTCPRecvTimeoutExpires(t *testing.T) {
	_, a, _ := tcpPair(t)
	errc := make(chan error, 1)
	a.SpawnRoot("waiter", func(task Task) {
		_, _, _, err := task.RecvTimeout(AnySrc, 42, 30*time.Millisecond)
		errc <- err
	})
	select {
	case err := <-errc:
		if err != ErrRecvTimeout {
			t.Fatalf("err = %v, want ErrRecvTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RecvTimeout hung")
	}
	a.Wait()
}

// TestTCPPartitionYieldsError: when the daemon dies for good, a blocked
// RecvTimeout must surface the session failure instead of hanging.
func TestTCPPartitionYieldsError(t *testing.T) {
	d, err := NewDaemon("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a, err := ConnectTCPOpts(d.Addr(), TCPOptions{MaxReconnects: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	errc := make(chan error, 1)
	a.SpawnRoot("waiter", func(task Task) {
		// No timeout: only the partition error can end this wait.
		_, _, _, err := task.RecvTimeout(AnySrc, 1, 0)
		errc <- err
	})
	d.Close() // the daemon is gone for good; reconnects must give up
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("blocked receive returned nil error on dead session")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("blocked receive hung on a partitioned session")
	}
	if a.Err() == nil {
		t.Fatal("session not marked dead")
	}
	a.Wait()
}

// TestTCPHeartbeatKeepsIdleSessionAlive: with heartbeats on and a strict
// daemon idle timeout, a session with no traffic must stay attached and
// still route messages afterwards.
func TestTCPHeartbeatKeepsIdleSessionAlive(t *testing.T) {
	d, err := NewDaemonOpts("127.0.0.1:0", DaemonOptions{IdleTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	hb := TCPOptions{Heartbeat: 50 * time.Millisecond}
	a, err := ConnectTCPOpts(d.Addr(), hb)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ConnectTCPOpts(d.Addr(), hb)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ready := make(chan int, 1)
	got := make(chan float64, 1)
	a.SpawnRoot("receiver", func(task Task) {
		ready <- task.TID()
		buf, _, _ := task.Recv(AnySrc, 5)
		got <- buf.MustFloat64()
	})
	aTID := <-ready
	// Idle well past the daemon's timeout; only pings flow.
	time.Sleep(600 * time.Millisecond)
	b.SpawnRoot("sender", func(task Task) {
		task.Send(aTID, 5, NewBuffer().PackFloat64(8))
	})
	select {
	case v := <-got:
		if v != 8 {
			t.Fatalf("payload = %v", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("message lost after idle period (a err: %v, b err: %v)", a.Err(), b.Err())
	}
	a.Wait()
	b.Wait()
}

// TestTCPTeardownLeaksNoGoroutines runs a full session lifecycle —
// spawns, traffic, a forced reconnect, heartbeats — and demands the
// goroutine count returns to its baseline after teardown.
func TestTCPTeardownLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		d, err := NewDaemon("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		kd := &killableDialer{}
		a, err := ConnectTCPOpts(d.Addr(), TCPOptions{Dial: kd.dial, Heartbeat: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		b, err := ConnectTCP(d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		ready := make(chan int, 1)
		done := make(chan struct{})
		a.SpawnRoot("receiver", func(task Task) {
			ready <- task.TID()
			task.Recv(AnySrc, 1)
			close(done)
		})
		aTID := <-ready
		kd.kill() // force one reconnect cycle
		b.SpawnRoot("sender", func(task Task) {
			task.Send(aTID, 1, NewBuffer().PackInt(1))
		})
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("message lost (a err: %v)", a.Err())
		}
		a.Wait()
		b.Wait()
	}()
	waitGoroutinesBack(t, base, 2)
}

// TestReconnectDelayFullJitterBounds pins the reconnect backoff contract:
// every draw for attempt k is uniform in (0, min(500ms, 5ms<<k)], and a
// pinned seed reproduces the schedule exactly while different seeds
// decorrelate — the property that spreads a post-restart retry storm.
func TestReconnectDelayFullJitterBounds(t *testing.T) {
	const base, ceil = 5 * time.Millisecond, 500 * time.Millisecond
	for attempt := 0; attempt < 12; attempt++ {
		window := base << uint(attempt)
		if window > ceil || window <= 0 {
			window = ceil
		}
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 200; i++ {
			d := reconnectDelay(attempt, rng)
			if d <= 0 || d > window {
				t.Fatalf("attempt %d draw %d: delay %v outside (0, %v]", attempt, i, d, window)
			}
		}
	}
	// Same seed, same schedule.
	a, b := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	for attempt := 0; attempt < 8; attempt++ {
		if da, db := reconnectDelay(attempt, a), reconnectDelay(attempt, b); da != db {
			t.Fatalf("attempt %d: pinned seed produced %v then %v", attempt, da, db)
		}
	}
	// Different seeds decorrelate somewhere in the schedule.
	c, d := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))
	same := true
	for attempt := 0; attempt < 8; attempt++ {
		if reconnectDelay(attempt, c) != reconnectDelay(attempt, d) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical backoff schedules")
	}
	// The late window saturates: large attempts draw from (0, 500ms].
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		if d := reconnectDelay(30, rng); d <= 0 || d > ceil {
			t.Fatalf("saturated window draw %v outside (0, %v]", d, ceil)
		}
	}
}
