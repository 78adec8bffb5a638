package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// The streaming plane: /streamz pushes bounded, coalesced snapshots of
// the whole observability surface — metric values, the attached run's
// comm matrix and rank profiles, health, and any registered extras
// (oracle residuals, control-plane queue depth) — as server-sent events.
//
// One hub goroutine builds a snapshot per tick and broadcasts the same
// rendered payload to every subscriber over a capacity-1 channel.  A
// slow consumer never blocks the hub or other subscribers: its stale
// snapshot is replaced by the newest one and the drop is counted — the
// stream coalesces, it does not backlog.

// StreamSnapshot is one rendered frame of the streaming plane.
type StreamSnapshot struct {
	Seq      uint64             `json:"seq"`
	Run      string             `json:"run,omitempty"`
	Health   string             `json:"health"`
	HealthOK bool               `json:"health_ok"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	Matrix   *MatrixData        `json:"matrix,omitempty"`
	Extras   map[string]any     `json:"extras,omitempty"`
	// Dropped is the global count of snapshots dropped on slow
	// subscribers since process start.
	Dropped uint64 `json:"dropped"`
}

// StreamSub is one subscription to the snapshot stream.  Read rendered
// JSON payloads from C; the channel closes when the subscription is
// canceled or the streaming plane shuts down.
type StreamSub struct {
	C       <-chan []byte
	ch      chan []byte
	dropped atomic.Uint64
	hub     *streamHub
}

// Dropped returns the number of snapshots this subscriber lost to
// coalescing (it always holds the newest instead).
func (s *StreamSub) Dropped() uint64 { return s.dropped.Load() }

// Cancel ends the subscription and closes C.  Safe to call twice.
func (s *StreamSub) Cancel() { s.hub.cancel(s) }

type streamHub struct {
	mu      sync.Mutex
	subs    map[*StreamSub]struct{}
	running bool
	stop    chan struct{}
	seq     uint64
}

var hub = &streamHub{subs: make(map[*StreamSub]struct{})}

// streamDrops is the authoritative global drop counter: it must count
// even while the metrics plane is disabled (Counter.Add is gated).
var streamDrops atomic.Uint64

var (
	// StreamSubscribers gauges the live /streamz subscriptions.
	StreamSubscribers = Default.Gauge("opal_stream_subscribers",
		"Live snapshot-stream subscriptions (/streamz consumers).")
	// StreamDropped counts snapshots dropped on slow subscribers.
	StreamDropped = Default.Counter("opal_stream_dropped_total",
		"Stream snapshots dropped on slow subscribers (each kept the newer frame).")
)

// streamInterval is the hub's tick period.
var streamInterval atomic.Int64

func init() { streamInterval.Store(int64(500 * time.Millisecond)) }

// SetStreamInterval sets the snapshot cadence (default 500ms; floors at
// 1ms).  Takes effect from the next tick.
func SetStreamInterval(d time.Duration) {
	if d < time.Millisecond {
		d = time.Millisecond
	}
	streamInterval.Store(int64(d))
}

// StreamSubscribe attaches a new subscriber to the snapshot stream,
// starting the hub on first use.  The subscriber owns a capacity-1
// channel: if it falls behind, older snapshots are dropped in its favor
// and counted on StreamDropped and StreamSub.Dropped.
func StreamSubscribe() *StreamSub {
	s := &StreamSub{ch: make(chan []byte, 1), hub: hub}
	s.C = s.ch
	hub.mu.Lock()
	defer hub.mu.Unlock()
	hub.subs[s] = struct{}{}
	StreamSubscribers.Set(int64(len(hub.subs)))
	if !hub.running {
		hub.running = true
		hub.stop = make(chan struct{})
		go hub.loop(hub.stop)
	}
	return s
}

func (h *streamHub) cancel(s *StreamSub) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[s]; !ok {
		return
	}
	delete(h.subs, s)
	close(s.ch)
	StreamSubscribers.Set(int64(len(h.subs)))
	if len(h.subs) == 0 && h.running {
		close(h.stop)
		h.running = false
	}
}

// CloseStreams terminates every live subscription — the HTTP stop path
// calls it before Shutdown so in-flight SSE handlers return within the
// grace window instead of pinning their connections open.
func CloseStreams() {
	hub.mu.Lock()
	defer hub.mu.Unlock()
	for s := range hub.subs {
		delete(hub.subs, s)
		close(s.ch)
	}
	StreamSubscribers.Set(0)
	if hub.running {
		close(hub.stop)
		hub.running = false
	}
}

func (h *streamHub) loop(stop chan struct{}) {
	for {
		t := time.NewTimer(time.Duration(streamInterval.Load()))
		select {
		case <-stop:
			t.Stop()
			return
		case <-t.C:
		}
		h.publish()
	}
}

// publish builds one snapshot and broadcasts it; exported for tests via
// PublishStreamSnapshot.
func (h *streamHub) publish() {
	h.mu.Lock()
	h.seq++
	seq := h.seq
	h.mu.Unlock()

	payload, err := json.Marshal(buildStreamSnapshot(seq))
	if err != nil {
		return
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	for s := range h.subs {
		select {
		case s.ch <- payload:
			continue
		default:
		}
		// Full: evict the stale frame, then deliver the new one.  The
		// second send can only miss if the subscriber drained in between,
		// in which case it goes through.
		select {
		case <-s.ch:
			s.dropped.Add(1)
			streamDrops.Add(1)
			StreamDropped.Add(1)
		default:
		}
		select {
		case s.ch <- payload:
		default:
			s.dropped.Add(1)
			streamDrops.Add(1)
			StreamDropped.Add(1)
		}
	}
}

// PublishStreamSnapshot builds and broadcasts one snapshot immediately,
// off the tick schedule — deterministic tests and one-shot consumers use
// it instead of waiting for the hub.
func PublishStreamSnapshot() { hub.publish() }

// Stream extras: other packages register named snapshot providers (the
// oracle's residual summary, the control plane's queue pressure) without
// telemetry importing them.
var (
	extrasMu sync.Mutex
	extras   = map[string]func() any{}
	extraOrd []string
)

// RegisterStreamExtra installs fn under name in every snapshot's extras
// map.  Re-registering replaces; a nil fn removes.  fn runs on the hub
// goroutine and must be cheap and non-blocking.
func RegisterStreamExtra(name string, fn func() any) {
	extrasMu.Lock()
	defer extrasMu.Unlock()
	if fn == nil {
		delete(extras, name)
		for i, n := range extraOrd {
			if n == name {
				extraOrd = append(extraOrd[:i], extraOrd[i+1:]...)
				break
			}
		}
		return
	}
	if _, ok := extras[name]; !ok {
		extraOrd = append(extraOrd, name)
	}
	extras[name] = fn
}

func buildStreamSnapshot(seq uint64) StreamSnapshot {
	snap := StreamSnapshot{Seq: seq, Run: Run(), Metrics: Default.Values()}
	state, ok := processHealth()
	_, compsOK := ComponentHealth()
	snap.Health, snap.HealthOK = state, ok && compsOK
	if s := attached.Load(); s != nil && s.Matrix != nil {
		md := s.Matrix.Snapshot()
		snap.Matrix = &md
	}
	extrasMu.Lock()
	names := append([]string(nil), extraOrd...)
	fns := make([]func() any, len(names))
	for i, n := range names {
		fns[i] = extras[n]
	}
	extrasMu.Unlock()
	if len(names) > 0 {
		snap.Extras = make(map[string]any, len(names))
		for i, n := range names {
			snap.Extras[n] = fns[i]()
		}
	}
	snap.Dropped = streamDrops.Load()
	return snap
}

// streamzHandler serves the SSE endpoint: one `data:` event per
// snapshot, flushed immediately, with a comment line reporting this
// subscriber's coalescing drops whenever the count advances.
func streamzHandler(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub := StreamSubscribe()
	defer sub.Cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	// A long-lived stream must outlive the server's write timeout; the
	// per-request deadline is lifted for this response only.
	rc := http.NewResponseController(w)
	rc.SetWriteDeadline(time.Time{})

	var reported uint64
	for {
		select {
		case payload, ok := <-sub.C:
			if !ok {
				return // plane shut down
			}
			if d := sub.Dropped(); d != reported {
				fmt.Fprintf(w, ": coalesced %d\n", d)
				reported = d
			}
			if _, err := w.Write([]byte("data: ")); err != nil {
				return
			}
			if _, err := w.Write(payload); err != nil {
				return
			}
			if _, err := w.Write([]byte("\n\n")); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
