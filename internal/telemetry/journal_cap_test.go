package telemetry

import (
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
)

// The byte cap bounds the JSONL stream, never corrupts it: every line
// that does reach the writer is complete, the flight recorder keeps
// rolling past the cap, and the dropped counter accounts for exactly the
// lines that are missing.
func TestJournalByteCap(t *testing.T) {
	var sb strings.Builder
	j := StartJournal(&sb, 8)
	defer StopJournal()
	const capBytes = 600
	j.SetMaxBytes(capBytes)

	const events = 50
	for i := 0; i < events; i++ {
		j.Emit("spam", F{"i": i, "pad": strings.Repeat("x", 40)})
	}

	if sb.Len() > capBytes {
		t.Fatalf("journal wrote %d bytes past the %d-byte cap", sb.Len(), capBytes)
	}
	if int64(sb.Len()) != j.written {
		t.Fatalf("written = %d, writer saw %d bytes", j.written, sb.Len())
	}
	if j.dropped == 0 {
		t.Fatal("cap was exceeded but Dropped() = 0")
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	for _, l := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("capped journal has a partial line %q: %v", l, err)
		}
	}
	// journal_start + every spam event is either written or counted dropped.
	if got := uint64(len(lines)) + j.dropped; got != events+1 {
		t.Fatalf("written %d + dropped %d != emitted %d", len(lines), j.dropped, events+1)
	}
	// The flight recorder is bounded by count, not bytes: it must have kept
	// rolling through the drops and hold its full capacity.
	if n := j.Flight().Len(); n != 8 {
		t.Fatalf("flight recorder holds %d events, want its capacity 8", n)
	}
	last := j.Flight().Events()[7]
	if !strings.Contains(last, `"i":49`) {
		t.Fatalf("flight recorder stopped recording under the cap: last = %s", last)
	}
}

func TestJournalSetMaxBytesZeroRemovesCap(t *testing.T) {
	var sb strings.Builder
	j := StartJournal(&sb, 4)
	defer StopJournal()
	j.SetMaxBytes(1) // everything past journal_start would drop...
	j.Emit("a", nil)
	j.SetMaxBytes(0) // ...until the cap is removed
	j.Emit("b", nil)
	if !strings.Contains(sb.String(), `"type":"b"`) {
		t.Fatalf("uncapped emit missing:\n%s", sb.String())
	}
	if strings.Contains(sb.String(), `"type":"a"`) {
		t.Fatalf("capped emit was written:\n%s", sb.String())
	}
	if j.dropped != 1 {
		t.Fatalf("dropped = %d, want 1", j.dropped)
	}
}

// Concurrent emitters racing trigger events must produce exactly one
// flight dump per trigger, each one intact — Emit holds the journal mutex
// across the render, the ring append and the dump, so dumps cannot
// interleave.  Run with -race to make the claim checkable.
func TestJournalConcurrentDumpTriggers(t *testing.T) {
	j := StartJournal(io.Discard, 64)
	defer StopJournal()
	var dump strings.Builder
	j.SetDumpWriter(&dump)

	const workers, per = 8, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				j.Emit("noise", F{"w": w, "i": i})
				j.Emit("supervisor_degraded", F{"w": w, "i": i})
			}
		}(w)
	}
	wg.Wait()

	out := dump.String()
	if got := strings.Count(out, "--- flight recorder dump (trigger: supervisor_degraded) ---"); got != workers*per {
		t.Fatalf("dump headers = %d, want exactly %d (one per trigger)", got, workers*per)
	}
	if got := strings.Count(out, "--- end flight recorder dump ---"); got != workers*per {
		t.Fatalf("dump footers = %d, want %d (dumps interleaved?)", got, workers*per)
	}
}
