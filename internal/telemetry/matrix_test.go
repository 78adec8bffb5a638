package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestMatrixRecordAndSnapshot(t *testing.T) {
	withEnabled(t)
	sent := PvmMsgsSent.Value()
	m := new(Matrix)
	m.MapRank(100, 0)
	m.MapRank(200, 1)
	m.MapRank(300, 2)
	RecordSend(m, 100, 200, 64)
	RecordSend(m, 100, 200, 64)
	RecordSend(nil, 100, 200, 64) // a run without a matrix books the counters only
	if got := PvmMsgsSent.Value() - sent; got != 3 {
		t.Fatalf("counters booked %d sends, want 3", got)
	}
	m.Record(200, 100, 1, 16)
	m.Record(100, 300, 3, 300)
	m.RecordLatency(100, 200, 0.25)
	m.RecordLatency(100, 200, 0.25)

	snap := m.Snapshot()
	if snap.Ranks != 3 {
		t.Fatalf("ranks = %d, want 3", snap.Ranks)
	}
	want := []MatrixLink{
		{Src: 0, Dst: 1, Msgs: 2, Bytes: 128, Calls: 2, LatSeconds: 0.5},
		{Src: 0, Dst: 2, Msgs: 3, Bytes: 300},
		{Src: 1, Dst: 0, Msgs: 1, Bytes: 16},
	}
	if !reflect.DeepEqual(snap.Links, want) {
		t.Fatalf("links = %+v, want %+v", snap.Links, want)
	}
	msgs, bytes := m.Totals()
	if msgs != 6 || bytes != 444 {
		t.Fatalf("totals = %d msgs %d bytes, want 6/444", msgs, bytes)
	}
}

func TestMatrixAutoAssignsUnmappedTIDs(t *testing.T) {
	m := new(Matrix)
	m.Record(7, 9, 1, 10) // both unmapped: ranks assigned in appearance order
	m.Record(9, 7, 2, 20)
	snap := m.Snapshot()
	if snap.Ranks != 2 {
		t.Fatalf("ranks = %d, want 2", snap.Ranks)
	}
	want := []MatrixLink{
		{Src: 0, Dst: 1, Msgs: 1, Bytes: 10},
		{Src: 1, Dst: 0, Msgs: 2, Bytes: 20},
	}
	if !reflect.DeepEqual(snap.Links, want) {
		t.Fatalf("links = %+v, want %+v", snap.Links, want)
	}
}

func TestMatrixRankProfiles(t *testing.T) {
	m := new(Matrix)
	m.MapRank(5, 0)
	m.RankSegment(5, 0, 1.5) // comp
	m.RankSegment(5, 1, 0.5) // comm
	m.RankSegment(5, 3, 2.0) // idle
	m.RankSegment(5, 4, 0.25)
	snap := m.Snapshot()
	if len(snap.Profiles) != 1 {
		t.Fatalf("profiles = %+v", snap.Profiles)
	}
	p := snap.Profiles[0]
	if p.Comp != 1.5 || p.Comm != 0.5 || p.Idle != 2.0 || p.Pack != 0.25 {
		t.Fatalf("profile = %+v", p)
	}
	wantBusy := 1 - 2.0/(1.5+0.5+2.0+0.25)
	if got := p.Busy(); got != wantBusy {
		t.Fatalf("busy = %v, want %v", got, wantBusy)
	}
}

func TestMatrixGrowPreservesCells(t *testing.T) {
	m := new(Matrix)
	m.MapRank(1, 0)
	m.MapRank(2, 1)
	m.Record(1, 2, 4, 40)
	m.MapRank(3, 5) // forces growth 2 → 6 with re-indexing
	snap := m.Snapshot()
	if snap.Ranks != 6 {
		t.Fatalf("ranks = %d, want 6", snap.Ranks)
	}
	if len(snap.Links) != 1 || snap.Links[0] != (MatrixLink{Src: 0, Dst: 1, Msgs: 4, Bytes: 40}) {
		t.Fatalf("links after growth = %+v", snap.Links)
	}
}

func TestEmitMatrixJournalsBothRecords(t *testing.T) {
	SetEnabled(true)
	defer SetEnabled(false)
	var buf bytes.Buffer
	StartJournal(&buf, 8)
	defer StopJournal()

	run := &Scope{ID: "r7"}
	run.EmitMatrix()
	run.Matrix = new(Matrix)
	run.EmitMatrix()
	if strings.Contains(buf.String(), "comm_matrix") {
		t.Fatalf("a run without a matrix, or with an empty one, journaled:\n%s", buf.String())
	}
	run.Matrix.Record(1, 2, 1, 10)
	run.EmitMatrix()
	out := buf.String()
	for _, want := range []string{
		`"run":"r7","type":"comm_matrix"`, `"run":"r7","type":"rank_profile"`,
		`"links":[{"src":0,"dst":1,"msgs":1,"bytes":10}]`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("journal missing %q:\n%s", want, out)
		}
	}
}
