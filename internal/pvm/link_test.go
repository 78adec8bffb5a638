package pvm

import (
	"bytes"
	"encoding/hex"
	"net"
	"sync"
	"testing"
)

// pipeEnd attaches a fresh in-memory connection to l (replaying past
// peerRecv) and returns the frames the far end reads, one channel send per
// frame, until the connection closes.
func pipeEnd(t *testing.T, l *link, peerRecv uint64) (far net.Conn, frames <-chan frame) {
	t.Helper()
	near, far := net.Pipe()
	ch := make(chan frame, 256)
	go func() {
		defer close(ch)
		for {
			f, err := readFrame(far)
			if err != nil {
				return
			}
			ch <- f
		}
	}()
	l.wmu.Lock()
	err := l.replay(near, peerRecv)
	l.wmu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { near.Close(); far.Close() })
	return far, ch
}

func retained(l *link) []uint64 {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	seqs := make([]uint64, len(l.unacked))
	for i, f := range l.unacked {
		seqs[i] = f.seq
	}
	return seqs
}

// The resumable-link protocol, once, without a daemon or a socket: what is
// retained, when an ack goes out, what a trim drops and what a replay
// resends.
func TestLinkRetainAckTrimReplay(t *testing.T) {
	var l link
	far, frames := pipeEnd(t, &l, 0)

	// Sequenced frames are numbered and retained; control frames are not.
	// A RegAck's body is never decoded, so one byte can tag each frame.
	for i := byte(1); i <= 3; i++ {
		if broken := l.send(frameRegAck, []byte{i}); broken != nil {
			t.Fatal("send broke a healthy conn")
		}
		if f := <-frames; f.typ != frameRegAck || f.body[0] != i {
			t.Fatalf("frame %d arrived as %+v", i, f)
		}
	}
	for _, typ := range []byte{framePing, framePong, frameAck, frameBye} {
		l.send(typ, appendU64(nil, 0))
		if f := <-frames; f.typ != typ {
			t.Fatalf("control frame %d arrived as %d", typ, f.typ)
		}
	}
	if got := retained(&l); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("retained seqs = %v, want [1 2 3]", got)
	}

	// One cumulative ack per ackEvery sequenced frames received, none
	// before; handshake frames are neither counted nor consumed.
	if control, _ := l.inbound(frameWelcome, 0); control || l.received() != 0 {
		t.Fatal("handshake frame counted or consumed")
	}
	for i := 1; i <= 2*ackEvery; i++ {
		if control, broken := l.inbound(frameMsg, 0); control || broken != nil {
			t.Fatalf("inbound %d: control %v broken %v", i, control, broken)
		}
		if i%ackEvery != 0 {
			continue
		}
		if f := <-frames; f.typ != frameAck || f.seq != uint64(i) {
			t.Fatalf("after %d frames: got frame %d seq %d, want ack %d", i, f.typ, f.seq, i)
		}
	}
	select {
	case f := <-frames:
		t.Fatalf("unexpected extra frame %+v", f)
	default:
	}

	// Ping, pong and ack all carry the peer's receive count and trim up to
	// it; a ping is answered with ours.
	if control, _ := l.inbound(frameAck, 1); !control {
		t.Fatal("ack not consumed by the link")
	}
	if got := retained(&l); len(got) != 2 || got[0] != 2 {
		t.Fatalf("after ack 1: retained %v, want [2 3]", got)
	}
	l.inbound(framePong, 1) // stale count: no-op
	l.inbound(framePing, 2)
	if f := <-frames; f.typ != framePong || f.seq != 2*ackEvery {
		t.Fatalf("ping answered with frame %d seq %d", f.typ, f.seq)
	}
	if got := retained(&l); len(got) != 1 || got[0] != 3 {
		t.Fatalf("after ping 2: retained %v, want [3]", got)
	}

	// A failed write detaches, reports the conn and keeps the frame;
	// detached sends only queue.
	far.Close()
	broken := l.send(frameRegAck, []byte{4})
	if broken == nil || l.conn != nil {
		t.Fatalf("write on a closed conn: broken %v, still attached %v", broken, l.conn != nil)
	}
	if l.detach(broken) {
		t.Fatal("detach of an already-detached conn reported live")
	}
	if l.send(frameRegAck, []byte{5}) != nil {
		t.Fatal("detached send reported a broken conn")
	}
	l.send(framePing, appendU64(nil, 0)) // dropped, not queued
	if got := retained(&l); len(got) != 3 || got[2] != 5 {
		t.Fatalf("retained while detached = %v, want [3 4 5]", got)
	}

	// Replay resends only what the peer has not counted, in order, then
	// the fresh conn is live.
	_, frames = pipeEnd(t, &l, 3)
	for _, want := range []byte{4, 5} {
		if f := <-frames; f.typ != frameRegAck || f.body[0] != want {
			t.Fatalf("replayed %+v, want msg %d", f, want)
		}
	}
	l.send(frameRegAck, []byte{6})
	if f := <-frames; f.body[0] != 6 {
		t.Fatalf("first live frame after replay = %+v", f)
	}
}

// tap records the bytes of one direction of a connection.
type tap struct {
	net.Conn
	mu      sync.Mutex
	in, out bytes.Buffer
}

func (c *tap) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.in.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

func (c *tap) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// firstFrames splits a recorded byte stream into frames and returns the
// first of each type, length prefix and type byte included.
func firstFrames(t *testing.T, stream []byte) map[byte]string {
	t.Helper()
	first := map[byte]string{}
	r := bytes.NewReader(stream)
	for r.Len() > 0 {
		before := r.Len()
		f, err := readFrame(r)
		if err != nil {
			break // a frame still in flight when the stream was cut
		}
		if _, seen := first[f.typ]; !seen {
			start := len(stream) - before
			first[f.typ] = hex.EncodeToString(stream[start : len(stream)-r.Len()])
		}
	}
	return first
}

// One frame of every sequenced type in use, byte for byte as two live
// sessions and the daemon put it on the wire: session 1 registers nothing,
// spawns one "w" (hosted by session 2), sends it one message and meets it
// in a barrier.  Sessions running other builds must keep understanding
// these bytes, so a change here is a protocol change, not a refactor.
func TestWireGoldenFrames(t *testing.T) {
	d, err := NewDaemon("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	taps := map[int]*tap{}
	connect := func() *TCPVM {
		var tp *tap
		v, err := ConnectTCPOpts(d.Addr(), TCPOptions{Dial: func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			tp = &tap{Conn: c}
			return tp, err
		}})
		if err != nil {
			t.Fatal(err)
		}
		taps[v.id] = tp
		return v
	}
	a, b := connect(), connect()
	b.RegisterSpawn("w", func(w Task) {
		buf, _, _ := w.Recv(w.Parent(), 7)
		if buf.MustString() != "go" {
			panic("bad payload")
		}
		w.Barrier("sync", 2)
	})
	a.SpawnRoot("root", func(root Task) {
		tids := root.Spawn("w", 1, nil)
		root.Send(tids[0], 7, NewBuffer().PackString("go").PackFloat64(1.5).PackInt(-2))
		root.Barrier("sync", 2)
	})
	a.Wait()
	b.Wait()
	a.Close()
	b.Close()

	stream := func(sid int, out bool) map[byte]string {
		tp := taps[sid]
		tp.mu.Lock()
		defer tp.mu.Unlock()
		if out {
			return firstFrames(t, tp.out.Bytes())
		}
		return firstFrames(t, tp.in.Bytes())
	}
	aOut, aIn, bOut, bIn := stream(1, true), stream(1, false), stream(2, true), stream(2, false)
	golden := []struct {
		name string
		got  string
		want string
	}{
		{"RegHost b->d", bOut[frameRegHost], "000000060b0000000177"},
		{"RegAck d->b", bIn[frameRegAck], "000000010c"},
		{"SpawnReq a->d", aOut[frameSpawnReq], "0000000e0800010000000000010000000177"},
		{"SpawnFwd d->b", bIn[frameSpawnFwd], "0000000e0900010000000000010000000177"},
		{"SpawnRep b->d", bOut[frameSpawnRep], "0000000d0a000100000000000100020000"},
		{"SpawnRep d->a", aIn[frameSpawnRep], "0000000d0a000100000000000100020000"},
		{"Msg a->d", aOut[frameMsg], "000000320500020000000100000000000700000003" +
			"0300000002676f" + "00000000013ff8000000000000" + "0100000001fffffffffffffffe"},
		{"Msg d->b", bIn[frameMsg], "000000320500020000000100000000000700000003" +
			"0300000002676f" + "00000000013ff8000000000000" + "0100000001fffffffffffffffe"},
		{"Barrier a->d", aOut[frameBarrier], "000000110600000004" + "73796e63" + "0000000200000001"},
		{"Release d->a", aIn[frameRelease], "0000000d0700000004" + "73796e63" + "00000001"},
	}
	for _, g := range golden {
		if g.got != g.want {
			t.Errorf("%s:\n got %s\nwant %s", g.name, g.got, g.want)
		}
	}
}
