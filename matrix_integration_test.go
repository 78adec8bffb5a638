package opalperf

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"opalperf/internal/harness"
	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/platform"
	"opalperf/internal/pvm"
	"opalperf/internal/telemetry"
)

// TestCommMatrixReconcilesWithCounters pins the matrix instrument's
// accounting contract: every message the pvm layer counts lands in
// exactly one matrix cell, so the matrix totals equal the aggregate
// opal_pvm_* counter deltas — not approximately, exactly.  A plane serves
// the run and a /streamz subscriber reads it all along: the plane's hub
// snapshots the live matrix from its own goroutine, which -race holds to
// the matrix's lock.
func TestCommMatrixReconcilesWithCounters(t *testing.T) {
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(false)

	spec := supervisedSpec(func(cp *md.Checkpoint) error { return nil })
	spec.Scope = &telemetry.Scope{Matrix: new(telemetry.Matrix)}
	telemetry.SetStreamInterval(time.Millisecond)
	defer telemetry.SetStreamInterval(500 * time.Millisecond)
	srv := httptest.NewServer(telemetry.Plane{Run: spec.Scope}.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/streamz")
	if err != nil {
		t.Fatal(err)
	}
	frames := make(chan int, 1)
	go func() {
		n, br := 0, bufio.NewReader(resp.Body)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				frames <- n
				return
			}
			if strings.HasPrefix(line, "data: ") {
				n++
			}
		}
	}()
	msgsBefore := telemetry.PvmMsgsSent.Value()
	bytesBefore := telemetry.PvmBytesSent.Value()
	_, err = harness.Run(spec)
	resp.Body.Close()
	if n := <-frames; n == 0 {
		t.Error("no /streamz frame arrived during the run")
	}
	if err != nil {
		t.Fatal(err)
	}
	wantMsgs := uint64(telemetry.PvmMsgsSent.Value() - msgsBefore)
	wantBytes := uint64(telemetry.PvmBytesSent.Value() - bytesBefore)
	gotMsgs, gotBytes := spec.Scope.Matrix.Totals()
	if gotMsgs != wantMsgs || gotBytes != wantBytes {
		t.Fatalf("matrix totals = %d msgs / %d bytes, counters moved %d msgs / %d bytes",
			gotMsgs, gotBytes, wantMsgs, wantBytes)
	}
	if wantMsgs == 0 {
		t.Fatal("run moved no messages; reconciliation is vacuous")
	}
}

// matrixOfRun runs one fault-free parallel simulation under the given
// LoD mode with a matrix armed and returns its snapshot plus the number
// of phases the run replayed as macro-events.
func matrixOfRun(t *testing.T, lod md.LoDMode) (telemetry.MatrixData, int) {
	t.Helper()
	sys := molecule.TestComplex(2, 4, 9)
	opts := md.Options{
		Cutoff:          10,
		UpdateEvery:     1,
		Accounting:      true,
		InitTemperature: 300,
		Seed:            7,
		LoD:             lod,
	}
	s := pvm.NewSimVM(platform.J90(), nil)
	run := &telemetry.Scope{Matrix: new(telemetry.Matrix)}
	s.SetScope(run)
	var res *md.Result
	var runErr error
	s.SpawnRoot("opal-client", func(task pvm.Task) {
		res, runErr = md.RunParallel(task, sys, opts, 4, 6)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return run.Matrix.Snapshot(), res.LoDMacroPhases
}

// TestCommMatrixIdenticalUnderLoD requires the macro-replay fabric to
// book the same matrix cells as the fine-grained DES: message counts,
// byte counts, call counts and the float latency sums must all be
// bit-identical, so macro replay never changes what the console shows.
func TestCommMatrixIdenticalUnderLoD(t *testing.T) {
	fine, finePhases := matrixOfRun(t, md.LoDOff)
	macro, macroPhases := matrixOfRun(t, md.LoDAuto)
	if len(fine.Links) == 0 {
		t.Fatal("fine-grained run produced no matrix links")
	}
	if finePhases != 0 {
		t.Fatalf("lod=off run replayed %d macro phases", finePhases)
	}
	if macroPhases == 0 {
		t.Fatal("lod=auto run replayed no macro phases; identity is vacuous")
	}
	if !reflect.DeepEqual(fine, macro) {
		t.Fatalf("matrix differs under lod=auto:\nfine:  %+v\nmacro: %+v", fine, macro)
	}
}

// TestCommMatrixHealInheritance kills one server mid-run on a
// self-healing fleet and requires the replacement task to inherit the
// dead rank's row and column: the grid stays client + N servers wide,
// with no ghost rank for the respawned TID.
func TestCommMatrixHealInheritance(t *testing.T) {
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(false)

	spec := supervisedSpec(func(cp *md.Checkpoint) error { return nil })
	spec.Scope = &telemetry.Scope{Matrix: new(telemetry.Matrix)}
	if _, err := harness.Run(spec); err != nil {
		t.Fatal(err)
	}
	snap := spec.Scope.Matrix.Snapshot()
	wantRanks := spec.Servers + 1 // client is rank 0
	if snap.Ranks != wantRanks {
		t.Fatalf("ranks = %d, want %d (replacement server must inherit the dead rank)",
			snap.Ranks, wantRanks)
	}
	for _, l := range snap.Links {
		if l.Src >= wantRanks || l.Dst >= wantRanks {
			t.Fatalf("link %d→%d outside the %d-rank grid: %+v", l.Src, l.Dst, wantRanks, snap.Links)
		}
	}
	// The killed server's rank keeps traffic flowing after the heal:
	// the client↔rank-2 links (server index 1 died at step 3) exist.
	var toKilled, fromKilled bool
	for _, l := range snap.Links {
		if l.Src == 0 && l.Dst == 2 {
			toKilled = true
		}
		if l.Src == 2 && l.Dst == 0 {
			fromKilled = true
		}
	}
	if !toKilled || !fromKilled {
		t.Fatalf("no traffic on the healed rank's links: %+v", snap.Links)
	}
}
