package harness

import (
	"fmt"

	"opalperf/internal/md"
)

// RestartOutcome is the result of a kill-and-restart experiment.
type RestartOutcome struct {
	// Result carries the stitched trajectory (see md.StitchRestart).
	Result *md.Result
	// ResumedAt is the absolute step of the checkpoint the second leg
	// resumed from; 0 with no checkpoint captured before the kill (the
	// restart then replays the run from the beginning).
	ResumedAt int
	// First and Second are the raw outcomes of the two legs.
	First, Second RunOutcome
}

// RunWithRestart exercises the top rung of the recovery ladder: the
// client itself dies.  The spec is run with periodic checkpointing
// (every `every` steps, captured at pair-list update boundaries) and
// killed after killAt steps; a second run resumes from the latest
// checkpoint and finishes the remaining steps.  Because periodic
// captures always sit on update boundaries, the stitched trajectory is
// bit-identical to an uninterrupted run of the same spec — callers
// assert exactly that.
func RunWithRestart(spec RunSpec, every, killAt int) (RestartOutcome, error) {
	if every <= 0 {
		return RestartOutcome{}, fmt.Errorf("harness: checkpoint interval must be positive, have %d", every)
	}
	if killAt <= 0 || killAt >= spec.Steps {
		return RestartOutcome{}, fmt.Errorf("harness: kill step %d outside the run (0, %d)", killAt, spec.Steps)
	}

	var latest *md.Checkpoint
	first := spec
	first.Steps = killAt
	first.Opts.CheckpointEvery = every
	first.Opts.CheckpointSink = func(cp *md.Checkpoint) error {
		latest = cp
		return nil
	}
	fo, err := Run(first)
	if err != nil {
		return RestartOutcome{}, fmt.Errorf("harness: first leg: %w", err)
	}

	second := spec
	resumedAt := 0
	if latest != nil {
		ropts, err := latest.Resume(spec.Opts)
		if err != nil {
			return RestartOutcome{}, fmt.Errorf("harness: resuming: %w", err)
		}
		second.Sys = latest.Sys
		second.Opts = ropts
		resumedAt = latest.Step
	}
	second.Steps = spec.Steps - resumedAt
	so, err := Run(second)
	if err != nil {
		return RestartOutcome{}, fmt.Errorf("harness: resumed leg: %w", err)
	}

	return RestartOutcome{Result: md.StitchRestart(fo.Result, so.Result, resumedAt), ResumedAt: resumedAt, First: fo, Second: so}, nil
}
