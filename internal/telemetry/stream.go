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
// a plane's whole observability surface — metric values, its run's comm
// matrix, health, and its extras (oracle residuals, control-plane queue
// depth) — as server-sent events.
//
// Each plane's handler has one hub.  While anyone subscribes, its
// goroutine builds a snapshot per tick and broadcasts the same rendered
// payload to every subscriber over a capacity-1 channel.  A slow consumer
// never blocks the hub or other subscribers: its stale snapshot is
// replaced by the newest one and the drop is counted — the stream
// coalesces, it does not backlog.

// StreamSnapshot is one rendered frame of the streaming plane.
type StreamSnapshot struct {
	Seq      uint64             `json:"seq"`
	Run      string             `json:"run,omitempty"`
	Health   string             `json:"health"`
	HealthOK bool               `json:"health_ok"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	Matrix   *MatrixData        `json:"matrix,omitempty"`
	Extras   map[string]any     `json:"extras,omitempty"`
	// Dropped counts the snapshots this plane's stream has dropped on
	// slow subscribers since its handler was built.
	Dropped uint64 `json:"dropped"`
}

// streamSub is one subscription to a hub.  Rendered JSON payloads arrive
// on ch, which closes when the subscription is canceled.
type streamSub struct {
	ch      chan []byte
	dropped atomic.Uint64
}

// streamHub broadcasts one plane's snapshots to its subscribers.
type streamHub struct {
	plane   Plane
	mu      sync.Mutex
	subs    map[*streamSub]struct{}
	running bool
	stop    chan struct{}
	seq     uint64
	// drops counts every subscriber's coalescing drops; unlike
	// StreamDropped it counts while the metrics plane is disabled.
	drops atomic.Uint64
}

func newStreamHub(p Plane) *streamHub {
	return &streamHub{plane: p, subs: make(map[*streamSub]struct{})}
}

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

// subscribe attaches a new subscriber, starting the hub's goroutine on
// first use.  The subscriber owns a capacity-1 channel: if it falls
// behind, older snapshots are dropped in its favor and counted.
func (h *streamHub) subscribe() *streamSub {
	s := &streamSub{ch: make(chan []byte, 1)}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.subs[s] = struct{}{}
	StreamSubscribers.Add(1)
	if !h.running {
		h.running = true
		h.stop = make(chan struct{})
		go h.loop(h.stop)
	}
	return s
}

// cancel ends a subscription and closes its channel, stopping the hub's
// goroutine with the last one.  Safe to call twice.
func (h *streamHub) cancel(s *streamSub) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[s]; !ok {
		return
	}
	delete(h.subs, s)
	close(s.ch)
	StreamSubscribers.Add(-1)
	if len(h.subs) == 0 && h.running {
		close(h.stop)
		h.running = false
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

// publish builds one snapshot and broadcasts it.
func (h *streamHub) publish() {
	h.mu.Lock()
	h.seq++
	seq := h.seq
	h.mu.Unlock()

	payload, err := json.Marshal(h.snapshot(seq))
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
			h.drops.Add(1)
			StreamDropped.Add(1)
		default:
		}
		select {
		case s.ch <- payload:
		default:
			s.dropped.Add(1)
			h.drops.Add(1)
			StreamDropped.Add(1)
		}
	}
}

// snapshot builds frame seq of the plane.
func (h *streamHub) snapshot(seq uint64) StreamSnapshot {
	p := h.plane
	snap := StreamSnapshot{Seq: seq, Run: Run(), Metrics: Default.Values()}
	state, ok := p.runHealth()
	_, compsOK := p.components()
	snap.Health, snap.HealthOK = state, ok && compsOK
	if p.Run != nil && p.Run.Matrix != nil {
		md := p.Run.Matrix.Snapshot()
		snap.Matrix = &md
	}
	if len(p.Extras) > 0 {
		snap.Extras = make(map[string]any, len(p.Extras))
		for name, fn := range p.Extras {
			snap.Extras[name] = fn()
		}
	}
	snap.Dropped = h.drops.Load()
	return snap
}

// serve is the SSE endpoint: one `data:` event per snapshot, flushed
// immediately, with a comment line reporting this subscriber's coalescing
// drops whenever the count advances.  It returns when the client goes or
// its server stops (the request's context ends).
func (h *streamHub) serve(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub := h.subscribe()
	defer h.cancel(sub)
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
		case payload := <-sub.ch:
			if d := sub.dropped.Load(); d != reported {
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
