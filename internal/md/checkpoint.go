package md

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"opalperf/internal/atomicfile"
	"opalperf/internal/molecule"
)

// Checkpointing: long refinement campaigns on shared machines (the
// paper's J90s ran a batch service) need restartable state.  A checkpoint
// is the molecular system with its current coordinates plus the
// velocities and the absolute step counter; resuming at a pair-list
// update boundary reproduces the uninterrupted trajectory bit for bit.
//
// Checkpoint files are crash-consistent.  The v2 format carries a
// versioned header line with a CRC of the body:
//
//	opalperf checkpoint v2 crc32 xxxxxxxx
//	step N
//	<system in the molecule text format>
//	velocities 3N
//	vx vy vz
//	...
//
// The checksum spans every byte after the header line; ReadCheckpoint
// rejects any mismatch, so a torn or bit-rotted file surfaces as a clear
// error instead of being parsed into garbage.  WriteFile writes to a
// temp file, syncs and atomically renames it into place, so a crash
// mid-write never clobbers the previous good checkpoint.  Files written
// before v2 (the "# opalperf checkpoint" comment form) are still read,
// without integrity checking.

const (
	checkpointMagicV2 = "opalperf checkpoint v2 crc32 "
	// maxCheckpointBytes bounds ReadCheckpoint's input — the same
	// bounded-read discipline as the transport's readFrame: a lying or
	// hostile stream cannot force an unbounded allocation.
	maxCheckpointBytes = 64 << 20
)

// Checkpoint is a restartable simulation state.
type Checkpoint struct {
	Sys  *molecule.System // with current positions
	Vel  []float64
	Step int // absolute step number within the overall trajectory
}

// CheckpointOf captures the state after a finished run.  The capture is
// guaranteed resumable only when the run ended on a pair-list update
// boundary ((StartStep + len(Steps)) %% UpdateEvery == 0) — Resume
// enforces this.  Periodic in-run captures (Options.CheckpointEvery) are
// always taken at boundaries and therefore always resumable.
func CheckpointOf(sys *molecule.System, res *Result) *Checkpoint {
	snap := sys.Clone()
	copy(snap.Pos, res.FinalPos)
	vel := append([]float64(nil), res.FinalVel...)
	return &Checkpoint{Sys: snap, Vel: vel, Step: res.StartStep + len(res.Steps)}
}

// checkpointAt captures a mid-run snapshot for the periodic checkpoint
// sinks.  The engines call it only when step is a pair-list update
// boundary, which is what makes every periodic checkpoint bit-exact to
// resume from: the resumed engine rebuilds its lists immediately, at the
// same point the uninterrupted run would have.
func checkpointAt(sys *molecule.System, pos, vel []float64, step int) *Checkpoint {
	snap := sys.Clone()
	copy(snap.Pos, pos)
	return &Checkpoint{Sys: snap, Vel: append([]float64(nil), vel...), Step: step}
}

// ckptSched tracks when the next periodic checkpoint is due.  The
// schedule fires at the first pair-list update boundary at or after
// every CheckpointEvery completed steps (rounding captures up to the
// boundary keeps them exact; see checkpointAt).
type ckptSched struct {
	every, update, next int
	// at is the one-shot request hook (Options.CheckpointAt), consulted
	// with absolute step numbers; start is the run's StartStep offset.
	// A request made off a pair-list update boundary stays pending until
	// the next boundary, so every capture remains bit-exact to resume
	// from.
	at      func(step int) bool
	start   int
	pending bool
}

// newCkptSched builds the schedule for opts (which must already have
// defaults applied); the zero value is a disabled schedule.
func newCkptSched(opts Options) ckptSched {
	if opts.CheckpointEvery <= 0 && opts.CheckpointAt == nil {
		return ckptSched{}
	}
	return ckptSched{
		every: opts.CheckpointEvery, update: opts.UpdateEvery, next: opts.CheckpointEvery,
		at: opts.CheckpointAt, start: opts.StartStep,
	}
}

// due reports whether a snapshot must be captured after `completed`
// steps of the current run, advancing the schedule when it fires.
func (s *ckptSched) due(completed int) bool {
	if s.every <= 0 && s.at == nil {
		return false
	}
	if s.at != nil && s.at(s.start+completed) {
		s.pending = true
	}
	periodic := s.every > 0 && completed >= s.next
	if !s.pending && !periodic {
		return false
	}
	if completed%s.update != 0 {
		return false
	}
	if periodic {
		s.next = completed + s.every
	}
	s.pending = false
	return true
}

// Write serializes the checkpoint in the v2 crash-consistent format:
// a header line carrying a CRC32 (IEEE) of everything that follows.
func (c *Checkpoint) Write(w io.Writer) error {
	var body bytes.Buffer
	// Coordinates and velocities go out as hex floats (see
	// molecule.WriteExact): identical round-trip exactness, a fraction of
	// the formatting cost — this runs every checkpoint interval.
	body.Grow(100*c.Sys.N + 30*len(c.Vel))
	fmt.Fprintf(&body, "step %d\n", c.Step)
	if err := c.Sys.WriteExact(&body); err != nil {
		return err
	}
	fmt.Fprintf(&body, "velocities %d\n", len(c.Vel))
	line := make([]byte, 0, 80)
	for i := 0; i+2 < len(c.Vel); i += 3 {
		line = strconv.AppendFloat(line[:0], c.Vel[i], 'x', -1, 64)
		line = append(line, ' ')
		line = strconv.AppendFloat(line, c.Vel[i+1], 'x', -1, 64)
		line = append(line, ' ')
		line = strconv.AppendFloat(line, c.Vel[i+2], 'x', -1, 64)
		line = append(line, '\n')
		body.Write(line)
	}
	if _, err := fmt.Fprintf(w, "%s%08x\n", checkpointMagicV2, crc32.ChecksumIEEE(body.Bytes())); err != nil {
		return err
	}
	_, err := w.Write(body.Bytes())
	return err
}

// WriteFile writes the checkpoint to path crash-consistently: the bytes
// go to a temp file in path's directory, are synced to stable storage
// and atomically renamed over path — a crash at any point leaves either
// the previous checkpoint or the new one, never a torn mix.
func (c *Checkpoint) WriteFile(path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return fmt.Errorf("md: checkpoint temp file: %w", err)
	}
	if err := atomicfile.Commit(f, path, c.Write); err != nil {
		return fmt.Errorf("md: writing checkpoint %s: %w", path, err)
	}
	return nil
}

// ReadCheckpointFile reads a checkpoint file written by WriteFile.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("md: opening checkpoint: %w", err)
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

// ReadCheckpoint parses a checkpoint written by Write.  v2 files are
// verified against their header checksum; the pre-v2 comment-headed
// format is still accepted, without integrity checking.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	raw, err := io.ReadAll(io.LimitReader(r, maxCheckpointBytes+1))
	if err != nil {
		return nil, fmt.Errorf("md: reading checkpoint: %w", err)
	}
	if len(raw) > maxCheckpointBytes {
		return nil, fmt.Errorf("md: checkpoint exceeds %d bytes", maxCheckpointBytes)
	}
	text := string(raw)
	if strings.HasPrefix(text, checkpointMagicV2) {
		i := strings.IndexByte(text, '\n')
		if i < 0 {
			return nil, fmt.Errorf("md: v2 checkpoint has no body")
		}
		sum, err := strconv.ParseUint(strings.TrimSpace(text[len(checkpointMagicV2):i]), 16, 32)
		if err != nil {
			return nil, fmt.Errorf("md: bad checkpoint checksum field: %w", err)
		}
		body := text[i+1:]
		if got := crc32.ChecksumIEEE([]byte(body)); got != uint32(sum) {
			return nil, fmt.Errorf("md: checkpoint corrupt: crc32 %08x, header says %08x", got, uint32(sum))
		}
		return parseCheckpointBody(body)
	}
	return parseCheckpointBody(text)
}

// parseCheckpointBody parses the step / system / velocities sections.
func parseCheckpointBody(text string) (*Checkpoint, error) {
	// Step header: the first non-comment line.
	var step int
	rest := text
	for {
		line, more, ok := nextLine(rest)
		if !ok {
			return nil, fmt.Errorf("md: checkpoint header missing")
		}
		rest = more
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if _, err := fmt.Sscanf(line, "step %d", &step); err != nil {
			return nil, fmt.Errorf("md: bad checkpoint header %q", line)
		}
		break
	}

	// Split off the velocities section (its marker line starts a suffix
	// the molecule parser must not see).
	idx := strings.LastIndex(rest, "\nvelocities ")
	if idx < 0 {
		return nil, fmt.Errorf("md: checkpoint has no velocities section")
	}
	sysText, velText := rest[:idx+1], rest[idx+1:]

	sys, err := molecule.Read(strings.NewReader(sysText))
	if err != nil {
		return nil, err
	}

	var count int
	header, velBody, ok := nextLine(velText)
	if !ok {
		return nil, fmt.Errorf("md: empty velocities section")
	}
	if _, err := fmt.Sscanf(header, "velocities %d", &count); err != nil {
		return nil, fmt.Errorf("md: bad velocities header %q", header)
	}
	if count != 3*sys.N {
		return nil, fmt.Errorf("md: checkpoint has %d velocity components for %d atoms", count, sys.N)
	}
	fields := strings.Fields(velBody)
	if len(fields) != count {
		return nil, fmt.Errorf("md: %d velocity components, want %d", len(fields), count)
	}
	vel := make([]float64, count)
	for i, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("md: bad velocity %q", f)
		}
		vel[i] = v
	}
	return &Checkpoint{Sys: sys, Vel: vel, Step: step}, nil
}

// nextLine splits the first line off text.
func nextLine(text string) (line, rest string, ok bool) {
	if text == "" {
		return "", "", false
	}
	if i := strings.IndexByte(text, '\n'); i >= 0 {
		return strings.TrimSpace(text[:i]), text[i+1:], true
	}
	return strings.TrimSpace(text), "", true
}

// Resume returns run options continuing from the checkpoint: the caller
// runs the engine on c.Sys with these options.  It errors when the
// checkpoint step is not a pair-list update boundary of base (Step %%
// UpdateEvery != 0): the resumed engine rebuilds its pair lists on its
// first step, so an off-boundary resume would silently diverge from the
// uninterrupted trajectory instead of reproducing it bit for bit.
// Periodic captures (Options.CheckpointEvery) are always taken at
// boundaries and always resume.
func (c *Checkpoint) Resume(base Options) (Options, error) {
	if ue := base.withDefaults().UpdateEvery; c.Step%ue != 0 {
		return Options{}, fmt.Errorf(
			"md: checkpoint at step %d is not a pair-list update boundary (update every %d): resume would not reproduce the uninterrupted trajectory",
			c.Step, ue)
	}
	base.StartVelocities = c.Vel
	base.InitTemperature = 0 // never re-draw velocities on a resume
	base.StartStep = c.Step
	return base, nil
}
