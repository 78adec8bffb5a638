package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The run journal: a structured JSONL stream of lifecycle events — faults
// injected, deaths detected, respawns, recoveries, checkpoint writes and
// resumes, supervisor transitions — plus a bounded in-memory flight
// recorder holding the last N rendered events for post-mortem dumps when
// the run degrades or crashes.
//
// Events are rare (per-lifecycle, never per-message), so the journal
// favours readability and determinism over write throughput: one mutex,
// one rendered line per event, fields sorted by key.

// F carries the variable fields of one event.
type F = map[string]any

// Journal writes events as JSONL and mirrors them into a flight ring.
type Journal struct {
	mu      sync.Mutex
	w       io.Writer // nil: flight-recorder only
	flight  *Flight
	buf     []byte
	dumpW   io.Writer       // destination for triggered flight dumps
	dumpOn  map[string]bool // event types that trigger a dump
	started time.Time
	// maxBytes caps the JSONL stream (<= 0: unbounded).  Once a rendered
	// line would push written past the cap it is dropped from the stream —
	// the flight ring still records it — and dropped counts it, so a
	// misbehaving run cannot fill the disk while the journal stays honest
	// about what is missing.
	maxBytes int64
	written  int64
	dropped  uint64
	// clock stamps events; nil means time.Now.  Tests and deterministic
	// scenario replays pin it so that two identical runs render
	// byte-identical journal lines.
	clock func() time.Time
	// mirror, when set, receives every rendered event line — the archive
	// ingestion hook.  A plain function keeps telemetry free of an archive
	// import; the byte cap does not apply to the mirror.
	mirror func(run, typ string, wall time.Time, line string)
}

// current is the installed journal; Emit no-ops while it is nil.
var current atomic.Pointer[Journal]

// StartJournal installs a journal writing JSONL events to w (which may be
// nil for a flight-recorder-only journal) with a flight ring of the last
// flightN events (<= 0 selects the default of 256).  It replaces any
// previously installed journal and emits a journal_start event carrying
// the run ID.
func StartJournal(w io.Writer, flightN int) *Journal {
	if flightN <= 0 {
		flightN = 256
	}
	j := &Journal{
		w:       w,
		flight:  NewFlight(flightN),
		dumpOn:  map[string]bool{"supervisor_degraded": true},
		started: time.Now(),
	}
	current.Store(j)
	Emit("journal_start", F{"flight_capacity": flightN})
	return j
}

// StopJournal uninstalls the current journal (tests, end of run).
func StopJournal() { current.Store(nil) }

// Current returns the installed journal, or nil.
func Current() *Journal { return current.Load() }

// SetDumpWriter directs triggered flight dumps (by default on the
// supervisor_degraded event) to w.  nil disables triggered dumps.
func (j *Journal) SetDumpWriter(w io.Writer) {
	j.mu.Lock()
	j.dumpW = w
	j.mu.Unlock()
}

// Flight returns the journal's flight recorder.
func (j *Journal) Flight() *Flight { return j.flight }

// SetClock replaces the wall-clock source stamping events (nil restores
// time.Now).  With a fixed clock and a fixed run ID, the journal of a
// deterministic run is byte-identical across replays — the contract the
// scenario byte-identity tests pin.
func (j *Journal) SetClock(fn func() time.Time) {
	j.mu.Lock()
	j.clock = fn
	j.mu.Unlock()
}

// SetMirror installs a tap receiving every rendered event line (run ID,
// event type, wall stamp, JSONL line including trailing newline) — the
// hook the run archive ingests the journal stream through.  nil removes
// the tap.  The mirror is called under the journal mutex; it must not
// emit events itself.
func (j *Journal) SetMirror(fn func(run, typ string, wall time.Time, line string)) {
	j.mu.Lock()
	j.mirror = fn
	j.mu.Unlock()
}

// SetMaxBytes caps the journal's JSONL stream at n bytes; events past the
// cap are dropped (and counted) rather than written.  n <= 0 removes the
// cap.  The flight recorder is unaffected — it is bounded by event count
// already.
func (j *Journal) SetMaxBytes(n int64) {
	j.mu.Lock()
	j.maxBytes = n
	j.mu.Unlock()
}

// Emit records one event of the process on the installed journal; a no-op
// when no journal is installed.  The event is stamped with the wall clock
// and the process's run ID; a run's own events go through its Scope.
func Emit(typ string, fields F) {
	j := current.Load()
	if j == nil {
		return
	}
	j.Emit(typ, fields)
}

// Emit records one event stamped with the process's run ID.
func (j *Journal) Emit(typ string, fields F) { j.emit(Run(), typ, fields) }

// emit records one event of run: renders it once, appends it to the JSONL
// stream and the flight ring, and fires a flight dump when the event type
// is a configured trigger.
func (j *Journal) emit(run, typ string, fields F) {
	j.mu.Lock()
	defer j.mu.Unlock()
	now := time.Now
	if j.clock != nil {
		now = j.clock
	}
	wall := now()
	j.buf = appendEvent(j.buf[:0], wall, run, typ, fields)
	line := string(j.buf)
	j.flight.add(line)
	if j.mirror != nil {
		j.mirror(run, typ, wall, line)
	}
	if j.w != nil {
		if j.maxBytes > 0 && j.written+int64(len(line)) > j.maxBytes {
			j.dropped++
			JournalDropped.Add(1)
			JournalDroppedEvents.Set(int64(j.dropped))
		} else {
			io.WriteString(j.w, line)
			j.written += int64(len(line))
		}
	}
	if j.dumpW != nil && j.dumpOn[typ] {
		fmt.Fprintf(j.dumpW, "--- flight recorder dump (trigger: %s) ---\n", typ)
		j.flight.DumpTo(j.dumpW)
		fmt.Fprintf(j.dumpW, "--- end flight recorder dump ---\n")
		FlightDumps.Add(1)
	}
}

// appendEvent renders one JSONL line: wall clock, run ID and type first,
// then the variable fields sorted by key so renderings are deterministic
// and golden-testable.
func appendEvent(b []byte, wall time.Time, run, typ string, fields F) []byte {
	b = append(b, `{"wall":"`...)
	b = wall.UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(b, '"')
	if run != "" {
		b = append(b, `,"run":`...)
		b = appendJSONValue(b, run)
	}
	b = append(b, `,"type":`...)
	b = appendJSONValue(b, typ)
	if len(fields) > 0 {
		keys := make([]string, 0, len(fields))
		for k := range fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b = append(b, ',')
			b = appendJSONValue(b, k)
			b = append(b, ':')
			b = appendJSONValue(b, fields[k])
		}
	}
	b = append(b, '}', '\n')
	return b
}

func appendJSONValue(b []byte, v any) []byte {
	enc, err := json.Marshal(v)
	if err != nil {
		enc, _ = json.Marshal(fmt.Sprint(v))
	}
	return append(b, enc...)
}

// Flight is the bounded in-memory flight recorder: a ring of the last N
// rendered journal lines, dumpable after a degradation or crash to show
// what led up to it — the post-mortem half of the journal.
type Flight struct {
	mu    sync.Mutex
	lines []string
	next  int
	full  bool
}

// NewFlight creates a flight recorder holding the last n events.
func NewFlight(n int) *Flight {
	if n <= 0 {
		n = 256
	}
	return &Flight{lines: make([]string, n)}
}

func (f *Flight) add(line string) {
	f.mu.Lock()
	f.lines[f.next] = line
	f.next++
	if f.next == len(f.lines) {
		f.next = 0
		f.full = true
	}
	f.mu.Unlock()
}

// Events returns the recorded lines, oldest first.
func (f *Flight) Events() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	if f.full {
		out = append(out, f.lines[f.next:]...)
	}
	out = append(out, f.lines[:f.next]...)
	return out
}

// Len returns the number of recorded events (capped at capacity).
func (f *Flight) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.full {
		return len(f.lines)
	}
	return f.next
}

// DumpTo writes the recorded events to w, oldest first.
func (f *Flight) DumpTo(w io.Writer) {
	for _, line := range f.Events() {
		io.WriteString(w, line)
	}
}

// DumpFlight dumps the installed journal's flight recorder to w — the
// crash-path helper cmd/opal calls from its panic handler and fatal exit.
// A no-op when no journal is installed.
func DumpFlight(w io.Writer) {
	j := current.Load()
	if j == nil {
		return
	}
	fmt.Fprintf(w, "--- flight recorder dump (%d events) ---\n", j.flight.Len())
	j.flight.DumpTo(w)
	fmt.Fprintf(w, "--- end flight recorder dump ---\n")
	FlightDumps.Add(1)
}
