package archive

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testClock() func() time.Time {
	t := time.Unix(1700000000, 0).UTC()
	return func() time.Time {
		t = t.Add(time.Second)
		return t
	}
}

func mustAppend(t *testing.T, a *Archive, rec Record) {
	t.Helper()
	if err := a.Append(rec); err != nil {
		t.Fatalf("Append: %v", err)
	}
}

func event(run, body string) Record {
	return Record{Kind: KindEvent, Run: run, Data: json.RawMessage(fmt.Sprintf(`{"msg":%q}`, body))}
}

func TestArchiveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	a.SetClock(testClock())
	for i := 0; i < 100; i++ {
		mustAppend(t, a, event(fmt.Sprintf("run-%03d", i%5), fmt.Sprintf("step %d", i)))
	}
	sum := RunSummary{Run: "run-000", Spec: "spec-a", Tenant: "acme", Wall: 1.5, EnergiesHash: "abc"}
	if err := a.AppendSummary(sum); err != nil {
		t.Fatalf("AppendSummary: %v", err)
	}
	if got := a.Len(); got != 101 {
		t.Fatalf("Len = %d, want 101", got)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	b, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer b.Close()
	if got := b.Len(); got != 101 {
		t.Fatalf("reopened Len = %d, want 101", got)
	}
	if b.truncated != 0 || b.corrupt != 0 {
		t.Fatalf("clean reopen reported truncated=%d corrupt=%d", b.truncated, b.corrupt)
	}
	evs := b.Select(Query{Kind: KindEvent, Run: "run-000"})
	if len(evs) != 20 {
		t.Fatalf("Select(run-000 events) = %d records, want 20", len(evs))
	}
	sums := b.Summaries(Query{Spec: "spec-a"})
	if len(sums) != 1 {
		t.Fatalf("Summaries = %d, want 1", len(sums))
	}
	got := sums[0]
	if got.Run != "run-000" || got.Tenant != "acme" || got.Wall != 1.5 || got.EnergiesHash != "abc" {
		t.Fatalf("summary round-trip mismatch: %+v", got)
	}
	if got.Unix == 0 {
		t.Fatal("summary Unix not stamped from the archive clock")
	}
}

func TestArchiveSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	a.SetClock(testClock())
	a.segBytes = 512 // tiny segments: force many rolls
	for i := 0; i < 200; i++ {
		mustAppend(t, a, event("r", fmt.Sprintf("payload %04d", i)))
	}
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	sealed, _ := filepath.Glob(filepath.Join(dir, "seg-*.seal"))
	if len(sealed) < 2 {
		t.Fatalf("expected multiple sealed segments, got %d", len(sealed))
	}
	open, _ := filepath.Glob(filepath.Join(dir, "seg-*.open"))
	if len(open) != 1 {
		t.Fatalf("expected exactly one active segment, got %d", len(open))
	}
	tmp, _ := filepath.Glob(filepath.Join(dir, "seg-*.tmp"))
	if len(tmp) != 0 {
		t.Fatalf("stray temp segments left behind: %v", tmp)
	}

	b, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer b.Close()
	if got := b.Len(); got != 200 {
		t.Fatalf("reopened Len = %d, want 200", got)
	}
	// Appends keep working across the reopen.
	mustAppend(t, b, event("r", "after reopen"))
	if got := b.Len(); got != 201 {
		t.Fatalf("post-reopen Len = %d, want 201", got)
	}
}

func TestArchiveTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	a.SetClock(testClock())
	for i := 0; i < 10; i++ {
		mustAppend(t, a, event("r", fmt.Sprintf("rec %d", i)))
	}
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	open, _ := filepath.Glob(filepath.Join(dir, "seg-*.open"))
	if len(open) != 1 {
		t.Fatalf("want one active segment, got %v", open)
	}
	// Simulate a crash mid-append: a frame header promising more payload
	// than the file holds.
	f, err := os.OpenFile(open[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x01, 0x00, 0xde, 0xad, 0xbe, 0xef, 'p', 'a', 'r'}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sizeBefore := fileSize(t, open[0])

	b, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if got := b.Len(); got != 10 {
		t.Fatalf("Len after torn-tail recovery = %d, want 10", got)
	}
	if b.truncated != 1 {
		t.Fatalf("Truncated = %d, want 1", b.truncated)
	}
	if got := fileSize(t, open[0]); got >= sizeBefore {
		t.Fatalf("torn tail not truncated: %d >= %d bytes", got, sizeBefore)
	}
	// The truncated archive accepts appends and survives another cycle.
	mustAppend(t, b, event("r", "post recovery"))
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Len(); got != 11 {
		t.Fatalf("final Len = %d, want 11", got)
	}
}

func TestArchiveCorruptSealedSegmentSkipped(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a.SetClock(testClock())
	for i := 0; i < 5; i++ {
		mustAppend(t, a, event("r", fmt.Sprintf("seg1 %d", i)))
	}
	a.mu.Lock()
	err = a.rollLocked()
	a.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustAppend(t, a, event("r", fmt.Sprintf("seg2 %d", i)))
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	sealed, _ := filepath.Glob(filepath.Join(dir, "seg-*.seal"))
	if len(sealed) != 1 {
		t.Fatalf("want one sealed segment, got %v", sealed)
	}
	// Flip a payload byte deep in the sealed file: CRC catches it, the
	// valid prefix survives, the archive still opens.
	raw, err := os.ReadFile(sealed[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0xff
	if err := os.WriteFile(sealed[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	b, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with corrupt sealed segment: %v", err)
	}
	defer b.Close()
	if b.corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", b.corrupt)
	}
	if got := b.Len(); got != 9 {
		t.Fatalf("Len = %d, want 9 (4 surviving + 5 active)", got)
	}
}

func TestArchiveStaleTempRemoved(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, a, event("r", "x"))
	a.Close()
	stale := filepath.Join(dir, "seg-000099.tmp")
	if err := os.WriteFile(stale, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp segment survived recovery: %v", err)
	}
}

func TestArchiveRejectsOversizedRecord(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	big := make(json.RawMessage, MaxRecordBytes+1)
	for i := range big {
		big[i] = 'a'
	}
	big[0], big[len(big)-1] = '"', '"'
	if err := a.Append(Record{Kind: KindEvent, Data: big}); err == nil {
		t.Fatal("oversized record accepted")
	}
}

func TestArchiveAppendAfterCloseFails(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	if err := a.Append(event("r", "x")); err == nil {
		t.Fatal("append on closed archive succeeded")
	}
}

func TestSinkPutFillsDefaults(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	s := &Sink{Archive: a, Tenant: "t1", Label: "lab"}
	if err := s.Put(RunSummary{Run: "r1", Spec: "spec-x", Wall: 2}); err != nil {
		t.Fatal(err)
	}
	sums := a.Summaries(Query{})
	if len(sums) != 1 {
		t.Fatalf("want 1 summary, got %d", len(sums))
	}
	if sums[0].Spec != "spec-x" || sums[0].Tenant != "t1" || sums[0].Label != "lab" {
		t.Fatalf("sink defaults not applied: %+v", sums[0])
	}
	// A nil sink is a no-op destination.
	var nilSink *Sink
	if err := nilSink.Put(RunSummary{Run: "r2"}); err != nil {
		t.Fatalf("nil sink Put: %v", err)
	}
}

func TestHashHelpers(t *testing.T) {
	if HashFloats([]float64{1, 2, 3}) != HashFloats([]float64{1, 2, 3}) {
		t.Fatal("HashFloats not deterministic")
	}
	if HashFloats([]float64{1, 2, 3}) == HashFloats([]float64{1, 2, 4}) {
		t.Fatal("HashFloats collision on differing input")
	}
	// Length prefixing keeps ("ab","c") and ("a","bc") apart.
	if HashStrings("ab", "c") == HashStrings("a", "bc") {
		t.Fatal("HashStrings boundary ambiguity")
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}
