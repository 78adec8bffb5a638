package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStreamSlowConsumerCoalesces(t *testing.T) {
	h := newStreamHub(Plane{})
	sub := h.subscribe()
	defer h.cancel(sub)

	// Never drain: each publish past the first must evict the stale frame
	// and count a drop, keeping only the newest payload buffered.
	h.publish()
	h.publish()
	h.publish()

	if d := sub.dropped.Load(); d != 2 {
		t.Fatalf("dropped = %d, want 2 (capacity-1 channel keeps the newest)", d)
	}
	var snap StreamSnapshot
	select {
	case payload := <-sub.ch:
		if err := json.Unmarshal(payload, &snap); err != nil {
			t.Fatalf("payload not JSON: %v", err)
		}
	default:
		t.Fatal("no buffered frame")
	}
	// Each frame carries the hub's drop count as of its build, one
	// broadcast behind the eviction it triggered: the third frame saw the
	// second's.
	if snap.Dropped != 1 {
		t.Fatalf("snapshot's drop count = %d, want 1", snap.Dropped)
	}
	// The buffered frame is the newest: a fresh subscriber's next frame
	// has a higher sequence number than ours.
	probe := h.subscribe()
	defer h.cancel(probe)
	h.publish()
	var next StreamSnapshot
	if err := json.Unmarshal(<-probe.ch, &next); err != nil {
		t.Fatal(err)
	}
	if next.Seq <= snap.Seq {
		t.Fatalf("sequence did not advance: %d then %d", snap.Seq, next.Seq)
	}
}

func TestStreamMultiSubscriberRace(t *testing.T) {
	const subs = 8
	h := newStreamHub(Plane{})
	before := StreamSubscribers.Value()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < subs; i++ {
		s := h.subscribe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer h.cancel(s)
			for {
				select {
				case <-s.ch:
				case <-stop:
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		h.publish()
	}
	close(stop)
	wg.Wait()
	if n := StreamSubscribers.Value(); n != before {
		t.Fatalf("subscribers gauge = %d after all canceled, want %d", n, before)
	}
}

func TestStreamCancelTwiceIsSafe(t *testing.T) {
	h := newStreamHub(Plane{})
	s := h.subscribe()
	h.cancel(s)
	h.cancel(s)
	if _, ok := <-s.ch; ok {
		t.Fatal("canceled subscription channel not closed")
	}
}

func TestStreamExtrasAppearInSnapshots(t *testing.T) {
	h := newStreamHub(Plane{Extras: map[string]func() any{
		"test_extra": func() any { return map[string]any{"k": 42} },
	}})
	snap := h.snapshot(1)
	ex, ok := snap.Extras["test_extra"].(map[string]any)
	if !ok || ex["k"] != 42 {
		t.Fatalf("extras = %#v", snap.Extras)
	}
	if snap := newStreamHub(Plane{}).snapshot(1); snap.Extras != nil {
		t.Fatalf("a plane without extras carries some: %#v", snap.Extras)
	}
}

func TestStreamSnapshotCarriesMatrixAndMetrics(t *testing.T) {
	m := new(Matrix)
	m.Record(1, 2, 3, 30)
	if snap := newStreamHub(Plane{}).snapshot(1); snap.Matrix != nil {
		t.Fatalf("a plane without a run carries a matrix: %+v", snap.Matrix)
	}
	snap := newStreamHub(Plane{Run: &Scope{Matrix: m}}).snapshot(2)
	if snap.Matrix == nil || snap.Matrix.Ranks != 2 || len(snap.Matrix.Links) != 1 {
		t.Fatalf("matrix = %+v", snap.Matrix)
	}
	if _, ok := snap.Metrics["opal_pvm_messages_sent_total"]; !ok {
		t.Fatalf("metrics missing aggregate counters: %d entries", len(snap.Metrics))
	}
	if _, ok := snap.Metrics["opal_go_goroutines"]; !ok {
		t.Fatal("metrics missing Go runtime gauges")
	}
}

// readSSEFrame reads one data: event from an open SSE stream.
func readSSEFrame(t *testing.T, br *bufio.Reader) StreamSnapshot {
	t.Helper()
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		if payload, ok := strings.CutPrefix(strings.TrimRight(line, "\n"), "data: "); ok {
			var snap StreamSnapshot
			if err := json.Unmarshal([]byte(payload), &snap); err != nil {
				t.Fatalf("bad frame %q: %v", payload, err)
			}
			return snap
		}
	}
}

func TestStreamzEndToEnd(t *testing.T) {
	SetStreamInterval(5 * time.Millisecond)
	defer SetStreamInterval(500 * time.Millisecond)
	bound, stop, err := Serve("localhost:0", Plane{}.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	resp, err := http.Get(fmt.Sprintf("http://%s/streamz", bound))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	first := readSSEFrame(t, br)
	second := readSSEFrame(t, br)
	if second.Seq <= first.Seq {
		t.Fatalf("sequence not advancing: %d then %d", first.Seq, second.Seq)
	}
}

func TestStreamzGracefulShutdownMidStream(t *testing.T) {
	SetStreamInterval(5 * time.Millisecond)
	defer SetStreamInterval(500 * time.Millisecond)
	bound, stop, err := Serve("localhost:0", Plane{}.Handler())
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/streamz", bound))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	readSSEFrame(t, br) // stream is live

	// Stopping the server must close the stream promptly (its base
	// context ends, which unblocks the handler before Shutdown drains),
	// not hang until the grace deadline cuts the connection.
	done := make(chan struct{})
	go func() {
		stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("stop() hung with a live /streamz subscriber")
	}
	// The subscriber sees EOF shortly after.
	errc := make(chan error, 1)
	go func() {
		for {
			if _, err := br.ReadString('\n'); err != nil {
				errc <- err
				return
			}
		}
	}()
	select {
	case <-errc:
	case <-time.After(3 * time.Second):
		t.Fatal("stream did not close after server stop")
	}
}

// TestStreamzStopLeavesOtherPlanes serves two planes in one process:
// stopping one closes its own /streamz subscriber and leaves the other's
// open and receiving.
func TestStreamzStopLeavesOtherPlanes(t *testing.T) {
	SetStreamInterval(5 * time.Millisecond)
	defer SetStreamInterval(500 * time.Millisecond)
	open := func() (stop func(), br *bufio.Reader) {
		bound, stop, err := Serve("localhost:0", Plane{}.Handler())
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(fmt.Sprintf("http://%s/streamz", bound))
		if err != nil {
			stop()
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		br = bufio.NewReader(resp.Body)
		readSSEFrame(t, br) // stream is live
		return stop, br
	}
	stopA, brA := open()
	stopB, brB := open()
	defer stopB()

	stopA()
	if _, err := io.ReadAll(brA); err != nil {
		t.Fatalf("stopped plane's stream: %v", err)
	}
	// B's subscriber still receives, frame after frame.
	first := readSSEFrame(t, brB)
	second := readSSEFrame(t, brB)
	if second.Seq <= first.Seq {
		t.Fatalf("surviving stream not advancing: %d then %d", first.Seq, second.Seq)
	}
}
