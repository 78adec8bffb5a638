package md

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"opalperf/internal/molecule"
	"opalperf/internal/platform"
)

func TestCheckpointRoundTrip(t *testing.T) {
	sys := molecule.TestComplex(10, 15, 21)
	res, _ := runSerialSim(t, sys, Options{Dt: 1e-4, InitTemperature: 200, Seed: 3}, 4)
	cp := CheckpointOf(sys, res)
	if cp.Step != 4 {
		t.Fatalf("step = %d", cp.Step)
	}
	var buf bytes.Buffer
	if err := cp.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 4 || got.Sys.N != sys.N {
		t.Fatalf("restored = step %d, n %d", got.Step, got.Sys.N)
	}
	for i := range cp.Vel {
		if got.Vel[i] != cp.Vel[i] {
			t.Fatalf("vel[%d] = %v, want %v (bit exact)", i, got.Vel[i], cp.Vel[i])
		}
	}
	for i := range cp.Sys.Pos {
		if got.Sys.Pos[i] != cp.Sys.Pos[i] {
			t.Fatalf("pos[%d] mismatch", i)
		}
	}
}

// TestCheckpointResumeExact is the headline property: 8 continuous steps
// equal 4 steps + checkpoint + 4 resumed steps, bit for bit.
func TestCheckpointResumeExact(t *testing.T) {
	sys := molecule.TestComplex(12, 20, 22)
	opts := Options{Dt: 1e-4, InitTemperature: 250, Seed: 5, UpdateEvery: 2}

	full, _ := runSerialSim(t, sys, opts, 8)

	first, _ := runSerialSim(t, sys, opts, 4)
	cp := CheckpointOf(sys, first)

	// Serialize and restore, as a real restart would.
	var buf bytes.Buffer
	if err := cp.Write(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	second, _ := runSerialSim(t, restored.Sys, mustResume(t, restored, opts), 4)

	for i := 0; i < 4; i++ {
		want := full.Steps[4+i].ETotal
		got := second.Steps[i].ETotal
		if got != want {
			t.Fatalf("resumed step %d energy %v != continuous %v", i, got, want)
		}
	}
	for i := range full.FinalPos {
		if full.FinalPos[i] != second.FinalPos[i] {
			t.Fatalf("final positions diverge at %d", i)
		}
	}
}

func TestCheckpointResumeParallel(t *testing.T) {
	// A checkpoint taken from a serial run resumes on the parallel
	// engine with identical physics.
	sys := molecule.TestComplex(10, 14, 23)
	opts := Options{Dt: 1e-4, InitTemperature: 150, Seed: 6}
	first, _ := runSerialSim(t, sys, opts, 3)
	cp := CheckpointOf(sys, first)
	serCont, _ := runSerialSim(t, cp.Sys, mustResume(t, cp, opts), 3)
	parCont, _, _ := runParallelSim(t, platform.J90(), cp.Sys, mustResume(t, cp, opts), 2, 3)
	for i := range serCont.Steps {
		if d := relDiff(serCont.Steps[i].ETotal, parCont.Steps[i].ETotal); d > 1e-9 {
			t.Fatalf("step %d: serial %v vs parallel %v", i,
				serCont.Steps[i].ETotal, parCont.Steps[i].ETotal)
		}
	}
}

func TestReadCheckpointErrors(t *testing.T) {
	sys := molecule.TestComplex(4, 4, 24)
	res, _ := runSerialSim(t, sys, Options{Minimize: true}, 1)
	cp := CheckpointOf(sys, res)
	var buf bytes.Buffer
	cp.Write(&buf)
	good := buf.String()

	cases := map[string]string{
		"empty":         "",
		"no step":       strings.Replace(good, "step 1", "speed 1", 1),
		"bad vel count": strings.Replace(good, "velocities 24", "velocities 7", 1),
		"bad vel value": strings.Replace(good, "velocities 24\n", "velocities 24\nx y z\n", 1),
	}
	for name, src := range cases {
		if _, err := ReadCheckpoint(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ReadCheckpoint(strings.NewReader(good)); err != nil {
		t.Fatalf("good checkpoint rejected: %v", err)
	}
}

func TestResumeNeverRedrawsVelocities(t *testing.T) {
	opts := Options{InitTemperature: 300}
	cp := &Checkpoint{Vel: []float64{1, 2, 3}}
	r := mustResume(t, cp, opts)
	if r.InitTemperature != 0 || r.StartVelocities == nil {
		t.Errorf("resume options = %+v", r)
	}
}

// mustResume is Resume for checkpoints known to sit on a boundary.
func mustResume(t *testing.T, cp *Checkpoint, base Options) Options {
	t.Helper()
	opts, err := cp.Resume(base)
	if err != nil {
		t.Fatal(err)
	}
	return opts
}

func TestResumeRejectsOffBoundaryCheckpoint(t *testing.T) {
	// The satellite bugfix: before, an off-boundary resume silently
	// produced a trajectory that diverged from the uninterrupted one.
	cp := &Checkpoint{Vel: []float64{1, 2, 3}, Step: 5}
	if _, err := cp.Resume(Options{UpdateEvery: 2}); err == nil {
		t.Fatal("Resume accepted a checkpoint off the pair-list update boundary")
	}
	if _, err := cp.Resume(Options{UpdateEvery: 1}); err != nil {
		t.Fatalf("every step is a boundary at UpdateEvery 1: %v", err)
	}
	if r := mustResume(t, &Checkpoint{Step: 6}, Options{UpdateEvery: 3}); r.StartStep != 6 {
		t.Fatalf("StartStep = %d, want 6", r.StartStep)
	}
}

func TestCheckpointCRCRejectsCorruption(t *testing.T) {
	sys := molecule.TestComplex(4, 4, 24)
	res, _ := runSerialSim(t, sys, Options{Minimize: true}, 1)
	var buf bytes.Buffer
	if err := CheckpointOf(sys, res).Write(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	if !strings.HasPrefix(good, checkpointMagicV2) {
		t.Fatalf("Write did not emit the v2 header: %q", good[:40])
	}
	// Flip one payload byte anywhere after the header: the CRC must
	// catch it even though the file still parses as text.
	for _, off := range []int{len(checkpointMagicV2) + 12, len(good) / 2, len(good) - 2} {
		bad := []byte(good)
		bad[off] ^= 1
		if _, err := ReadCheckpoint(bytes.NewReader(bad)); err == nil {
			t.Errorf("bit flip at %d accepted", off)
		} else if !strings.Contains(err.Error(), "corrupt") && !strings.Contains(err.Error(), "checksum") {
			// Header-field flips surface as checksum-field errors; body
			// flips as corruption. Anything else means the CRC was not
			// consulted.
			t.Errorf("bit flip at %d: unexpected error %v", off, err)
		}
	}
	// Truncations (torn writes) must be rejected too.
	for _, n := range []int{len(good) / 3, len(good) - 1} {
		if _, err := ReadCheckpoint(strings.NewReader(good[:n])); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

func TestCheckpointLegacyFormatStillReads(t *testing.T) {
	sys := molecule.TestComplex(4, 4, 24)
	res, _ := runSerialSim(t, sys, Options{Minimize: true}, 1)
	cp := CheckpointOf(sys, res)
	var buf bytes.Buffer
	if err := cp.Write(&buf); err != nil {
		t.Fatal(err)
	}
	// Reconstruct the pre-v2 form: comment header, no CRC line.
	body := buf.String()[strings.IndexByte(buf.String(), '\n')+1:]
	legacy := "# opalperf checkpoint\n" + body
	got, err := ReadCheckpoint(strings.NewReader(legacy))
	if err != nil {
		t.Fatalf("legacy checkpoint rejected: %v", err)
	}
	if got.Step != cp.Step || got.Sys.N != cp.Sys.N {
		t.Fatalf("legacy read = step %d, n %d", got.Step, got.Sys.N)
	}
}

func TestWriteFileAtomicRoundTrip(t *testing.T) {
	sys := molecule.TestComplex(6, 8, 25)
	res, _ := runSerialSim(t, sys, Options{Minimize: true}, 2)
	cp := CheckpointOf(sys, res)
	path := t.TempDir() + "/run.ckpt"
	if err := cp.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a later snapshot: the rename must replace in place
	// and leave no temp droppings behind.
	cp.Step += 2
	if err := cp.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != cp.Step {
		t.Fatalf("read back step %d, want %d", got.Step, cp.Step)
	}
	dir, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(dir) != 1 {
		names := make([]string, len(dir))
		for i, e := range dir {
			names[i] = e.Name()
		}
		t.Fatalf("temp files left behind: %v", names)
	}
}

// TestPeriodicCheckpointBoundaries pins the rounding rule: with
// CheckpointEvery 2 and UpdateEvery 3, captures land on the first
// update boundary at or after each due point — steps 3, 6 and 9.
func TestPeriodicCheckpointBoundaries(t *testing.T) {
	sys := molecule.TestComplex(8, 10, 26)
	var got []int
	opts := Options{
		Dt: 1e-4, InitTemperature: 100, Seed: 9, UpdateEvery: 3,
		CheckpointEvery: 2,
		CheckpointSink: func(cp *Checkpoint) error {
			got = append(got, cp.Step)
			if _, err := cp.Resume(Options{UpdateEvery: 3}); err != nil {
				return err
			}
			return nil
		},
	}
	if _, _ = runSerialSim(t, sys, opts, 10); len(got) != 3 || got[0] != 3 || got[1] != 6 || got[2] != 9 {
		t.Fatalf("periodic checkpoints at %v, want [3 6 9]", got)
	}
}

// TestPeriodicCheckpointResumeExactParallel is the crash-consistency
// headline on the parallel engine: a run killed mid-flight resumes from
// its latest periodic checkpoint and reproduces the uninterrupted
// trajectory bit for bit.
func TestPeriodicCheckpointResumeExactParallel(t *testing.T) {
	sys := molecule.TestComplex(10, 14, 27)
	base := Options{Dt: 1e-4, InitTemperature: 150, Seed: 4, UpdateEvery: 2}

	full, _, _ := runParallelSim(t, platform.J90(), sys, base, 2, 10)

	var latest *Checkpoint
	killed := base
	killed.CheckpointEvery = 3
	killed.CheckpointSink = func(cp *Checkpoint) error { latest = cp; return nil }
	// "Kill the client" after 7 steps: simply stop running there.  With
	// CheckpointEvery 3 and UpdateEvery 2 the captures land on boundaries
	// 4 and 8; the kill at 7 leaves step 4 as the latest.
	firstLeg, _, _ := runParallelSim(t, platform.J90(), sys, killed, 2, 7)
	if latest == nil || latest.Step != 4 {
		t.Fatalf("latest periodic checkpoint step = %v, want 4", latest)
	}
	second, _, _ := runParallelSim(t, platform.J90(), latest.Sys, mustResume(t, latest, base), 2, 6)
	if second.StartStep != 4 {
		t.Fatalf("resumed StartStep = %d", second.StartStep)
	}
	// Stitch: first-leg steps up to the checkpoint, resumed steps after.
	stitched := append(append([]StepInfo(nil), firstLeg.Steps[:4]...), second.Steps...)
	if len(stitched) != len(full.Steps) {
		t.Fatalf("stitched %d steps, want %d", len(stitched), len(full.Steps))
	}
	for i := range full.Steps {
		if stitched[i] != full.Steps[i] {
			t.Fatalf("step %d diverges:\n stitched %+v\n full     %+v", i, stitched[i], full.Steps[i])
		}
	}
	for i := range full.FinalPos {
		if full.FinalPos[i] != second.FinalPos[i] {
			t.Fatalf("final positions diverge at %d", i)
		}
	}
}

func TestCheckpointOptionValidation(t *testing.T) {
	sys := molecule.TestComplex(4, 4, 28)
	if _, err := runSerialSimErr(sys, Options{CheckpointEvery: 2}, 2); err == nil {
		t.Error("CheckpointEvery without CheckpointSink accepted")
	}
	sink := func(*Checkpoint) error { return nil }
	if _, err := runSerialSimErr(sys, Options{CheckpointSink: sink}, 2); err == nil {
		t.Error("CheckpointSink without CheckpointEvery accepted")
	}
	if _, err := runSerialSimErr(sys, Options{CheckpointEvery: -1, CheckpointSink: sink}, 2); err == nil {
		t.Error("negative CheckpointEvery accepted")
	}
}

// TestStitchRestartSumsBothLegs: the stitched result of a kill-and-restart
// run keeps the first leg's steps up to the resume point and loses no
// counter of either leg.
func TestStitchRestartSumsBothLegs(t *testing.T) {
	step := func(e float64) StepInfo { return StepInfo{ETotal: e} }
	first := &Result{
		Steps:      []StepInfo{step(1), step(2), step(3)}, // killed after 3, checkpoint at 2
		Recoveries: 1, RecoverySeconds: 0.5, LostTIDs: []int{4},
		Respawns: 2, RespawnSeconds: 0.25,
		LoDMacroPhases: 10, LoDFallbackPhases: 3,
		EndSeconds: 7,
	}
	second := &Result{
		Steps:      []StepInfo{step(30), step(40)},
		StartStep:  2,
		Recoveries: 4, RecoverySeconds: 1.5, LostTIDs: []int{9, 11},
		Respawns: 1, RespawnSeconds: 0.125,
		LoDMacroPhases: 6, LoDFallbackPhases: 1,
		EndSeconds: 5, Converged: true, FinalPos: []float64{1, 2, 3},
	}
	got := StitchRestart(first, second, 2)
	want := &Result{
		Steps:      []StepInfo{step(1), step(2), step(30), step(40)},
		Recoveries: 5, RecoverySeconds: 2, LostTIDs: []int{4, 9, 11},
		Respawns: 3, RespawnSeconds: 0.375,
		LoDMacroPhases: 16, LoDFallbackPhases: 4,
		EndSeconds: 5, Converged: true, FinalPos: []float64{1, 2, 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stitched:\n got %+v\nwant %+v", got, want)
	}
	if e := got.Energies(); !reflect.DeepEqual(e, []float64{1, 2, 30, 40}) {
		t.Fatalf("energies = %v", e)
	}
	if len(first.Steps) != 3 || len(second.LostTIDs) != 2 || second.StartStep != 2 {
		t.Fatal("stitching modified a leg")
	}
}
