package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStreamSlowConsumerCoalesces(t *testing.T) {
	sub := StreamSubscribe()
	defer sub.Cancel()

	// Never drain: each publish past the first must evict the stale frame
	// and count a drop, keeping only the newest payload buffered.
	PublishStreamSnapshot()
	PublishStreamSnapshot()
	PublishStreamSnapshot()

	if d := sub.Dropped(); d != 2 {
		t.Fatalf("dropped = %d, want 2 (capacity-1 channel keeps the newest)", d)
	}
	var snap StreamSnapshot
	select {
	case payload := <-sub.C:
		if err := json.Unmarshal(payload, &snap); err != nil {
			t.Fatalf("payload not JSON: %v", err)
		}
	default:
		t.Fatal("no buffered frame")
	}
	// Each frame carries the drop count as of its build, one broadcast
	// behind the eviction it triggered: the third frame saw the second's.
	if snap.Dropped < 1 {
		t.Fatalf("snapshot's global drop count = %d, want >= 1", snap.Dropped)
	}
	// The buffered frame is the newest: a fresh subscriber's next frame
	// has a higher sequence number than ours.
	probe := StreamSubscribe()
	defer probe.Cancel()
	PublishStreamSnapshot()
	var next StreamSnapshot
	if err := json.Unmarshal(<-probe.C, &next); err != nil {
		t.Fatal(err)
	}
	if next.Seq <= snap.Seq {
		t.Fatalf("sequence did not advance: %d then %d", snap.Seq, next.Seq)
	}
}

func TestStreamMultiSubscriberRace(t *testing.T) {
	const subs = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < subs; i++ {
		s := StreamSubscribe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.Cancel()
			for {
				select {
				case <-s.C:
				case <-stop:
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		PublishStreamSnapshot()
	}
	close(stop)
	wg.Wait()
	if n := StreamSubscribers.Value(); n != 0 {
		t.Fatalf("subscribers gauge = %d after all canceled", n)
	}
}

func TestStreamCancelTwiceIsSafe(t *testing.T) {
	s := StreamSubscribe()
	s.Cancel()
	s.Cancel()
	if _, ok := <-s.C; ok {
		t.Fatal("canceled subscription channel not closed")
	}
}

func TestStreamExtrasAppearInSnapshots(t *testing.T) {
	RegisterStreamExtra("test_extra", func() any { return map[string]any{"k": 42} })
	defer RegisterStreamExtra("test_extra", nil)
	snap := buildStreamSnapshot(1)
	ex, ok := snap.Extras["test_extra"].(map[string]any)
	if !ok || ex["k"] != 42 {
		t.Fatalf("extras = %#v", snap.Extras)
	}
	RegisterStreamExtra("test_extra", nil)
	if snap := buildStreamSnapshot(2); snap.Extras["test_extra"] != nil {
		t.Fatalf("removed extra still present: %#v", snap.Extras)
	}
}

func TestStreamSnapshotCarriesMatrixAndMetrics(t *testing.T) {
	m := new(Matrix)
	m.Record(1, 2, 3, 30)
	if snap := buildStreamSnapshot(1); snap.Matrix != nil {
		t.Fatalf("no run attached, yet the snapshot carries a matrix: %+v", snap.Matrix)
	}
	Attach(&Scope{Matrix: m})
	defer Attach(nil)
	snap := buildStreamSnapshot(2)
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
	bound, stop, err := Serve("localhost:0")
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
	bound, stop, err := Serve("localhost:0")
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

	// Stopping the server must close the stream promptly (CloseStreams
	// unblocks the handler before Shutdown drains), not hang until the
	// grace deadline cuts the connection.
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
