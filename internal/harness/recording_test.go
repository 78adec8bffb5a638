package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"opalperf/internal/archive"
	"opalperf/internal/telemetry"
)

// A recording journals to its file and mirrors into its archive until
// Close, which leaves no journal installed, the archive closed and every
// event on disk; an event emitted after Close reaches neither.
func TestRecordingMirrorsUntilClose(t *testing.T) {
	dir := t.TempDir()
	path, archDir := filepath.Join(dir, "run.jsonl"), filepath.Join(dir, "archive")
	rec, err := StartRecording(path, 16, 0, archDir)
	if err != nil {
		t.Fatal(err)
	}
	telemetry.Emit("recorded", nil)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if telemetry.Current() != nil {
		t.Fatal("Close left the journal installed")
	}
	telemetry.Emit("after_close", nil)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(raw), "\n"); lines != 2 || !strings.Contains(string(raw), `"type":"recorded"`) {
		t.Fatalf("journal file holds %d lines, want journal_start and recorded:\n%s", lines, raw)
	}
	a, err := archive.Open(archDir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// journal_start precedes the mirror; the archive holds the rest.
	evs := a.Select(archive.Query{Kind: archive.KindEvent})
	if len(evs) != 1 || !strings.Contains(string(evs[0].Data), `"type":"recorded"`) {
		t.Fatalf("archive holds %d events, want the recorded one", len(evs))
	}
}

// An archive that cannot open fails the start and leaves no journal
// installed.
func TestRecordingArchiveFailureStopsJournal(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := StartRecording("", 0, 0, notDir); err == nil || !strings.Contains(err.Error(), "cannot open archive") {
		t.Fatalf("StartRecording on a file as archive directory: %v", err)
	}
	if telemetry.Current() != nil {
		t.Fatal("a failed start left the journal installed")
	}
}
