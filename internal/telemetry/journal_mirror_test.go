package telemetry

import (
	"io"
	"strings"
	"testing"
	"time"
)

// The mirror tap receives every rendered event — run ID, type, wall stamp
// and the full JSONL line — regardless of the byte cap, and uninstalls
// cleanly.  This is the contract the run archive ingests through.
func TestJournalMirrorTap(t *testing.T) {
	var sb strings.Builder
	j := StartJournal(&sb, 8)
	defer StopJournal()

	type tap struct {
		run, typ, line string
		wall           time.Time
	}
	var got []tap
	j.SetMirror(func(run, typ string, wall time.Time, line string) {
		got = append(got, tap{run, typ, line, wall})
	})
	j.SetMaxBytes(1) // cap drops everything from the stream...
	j.Emit("evt_a", F{"k": 1})
	j.Emit("evt_b", nil)

	if len(got) != 2 {
		t.Fatalf("mirror saw %d events, want 2 (cap must not apply to the mirror)", len(got))
	}
	if got[0].typ != "evt_a" || got[1].typ != "evt_b" {
		t.Fatalf("mirror types = %s, %s", got[0].typ, got[1].typ)
	}
	if !strings.HasSuffix(got[0].line, "\n") || !strings.Contains(got[0].line, `"k":1`) {
		t.Fatalf("mirror line malformed: %q", got[0].line)
	}
	if got[0].wall.IsZero() {
		t.Fatal("mirror wall stamp is zero")
	}

	j.SetMirror(nil)
	j.Emit("evt_c", nil)
	if len(got) != 2 {
		t.Fatal("mirror still tapped after SetMirror(nil)")
	}
}

// The journal's drop count and flight-dump count surface as gauges in the
// Prometheus exposition — byte-cap truncation is visible to a scrape, not
// just in code.
func TestJournalGaugesOnMetrics(t *testing.T) {
	dumpsBefore := FlightDumps.Value()

	var sb strings.Builder
	j := StartJournal(&sb, 4)
	defer StopJournal()
	j.SetMaxBytes(1)
	for i := 0; i < 5; i++ {
		j.Emit("spam", F{"i": i})
	}
	if got := JournalDroppedEvents.Value(); got != int64(j.dropped) {
		t.Fatalf("dropped gauge = %d, journal dropped %d", got, j.dropped)
	}
	if j.dropped == 0 {
		t.Fatal("test emitted past the cap but nothing dropped")
	}

	j.SetDumpWriter(io.Discard)
	j.Emit("supervisor_degraded", nil)
	DumpFlight(io.Discard)
	if got := FlightDumps.Value() - dumpsBefore; got != 2 {
		t.Fatalf("flight-dump gauge advanced by %d, want 2 (one trigger + one crash-path dump)", got)
	}

	var prom strings.Builder
	Default.WritePrometheus(&prom)
	for _, want := range []string{
		"# TYPE opal_journal_dropped_events gauge",
		"# TYPE opal_flight_dumps gauge",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("metrics exposition missing %q", want)
		}
	}
}
