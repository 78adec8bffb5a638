package archive

import (
	"fmt"
	"strings"
)

// The regression watchdog: a before/after comparison generalized to N
// archived runs.  The baseline for a spec hash is the median makespan of
// the last Window archived runs of that spec; a new run slower than
// baseline × WallFactor is flagged, as is an energies hash diverging
// from the archived consensus (a determinism break is worse than a
// slowdown).

// Tolerance bounds how far a run may drift from its rolling baseline.
type Tolerance struct {
	// WallFactor flags a run whose makespan exceeds the baseline median
	// by this factor (1.25 = 25% slower).
	WallFactor float64
	// MinRuns is the fewest archived runs needed before the watchdog
	// judges at all; below it every run passes (baseline still warming).
	MinRuns int
	// Window caps how many most-recent archived runs form the baseline.
	Window int
	// CheckEnergies also flags an energies hash that disagrees with the
	// unanimous archived hash for this spec (only judged when the
	// baseline runs agree among themselves — a chaos cohort won't).
	CheckEnergies bool
}

// DefaultTolerance is the watchdog's stock configuration.
func DefaultTolerance() Tolerance {
	return Tolerance{WallFactor: 1.25, MinRuns: 3, Window: 16, CheckEnergies: true}
}

// WatchReport is one watchdog verdict.
type WatchReport struct {
	Spec         string
	BaselineRuns int
	BaselineWall float64 // median of the window
	Wall         float64
	Ratio        float64 // Wall / BaselineWall
	Flagged      bool
	Reasons      []string
}

// String renders the verdict for CLI output.
func (w WatchReport) String() string {
	state := "ok"
	if w.Flagged {
		state = "FLAGGED"
	}
	s := fmt.Sprintf("watchdog %s: spec=%s wall=%.6fs baseline=%.6fs (n=%d) ratio=%.3f",
		state, w.Spec, w.Wall, w.BaselineWall, w.BaselineRuns, w.Ratio)
	if len(w.Reasons) > 0 {
		s += " — " + strings.Join(w.Reasons, "; ")
	}
	return s
}

// Watch judges sum against the rolling baseline drawn from history — the
// archived summaries of the same spec hash, time-ordered, excluding sum
// itself (callers typically archive the new run first, then judge it;
// Watch drops a trailing history entry with sum's run ID).
func Watch(history []RunSummary, sum RunSummary, tol Tolerance) WatchReport {
	if tol.WallFactor <= 0 {
		tol.WallFactor = 1.25
	}
	if tol.MinRuns <= 0 {
		tol.MinRuns = 3
	}
	if tol.Window <= 0 {
		tol.Window = 16
	}
	base := make([]RunSummary, 0, len(history))
	for _, h := range history {
		if h.Run == sum.Run && h.Unix == sum.Unix {
			continue
		}
		base = append(base, h)
	}
	if len(base) > tol.Window {
		base = base[len(base)-tol.Window:]
	}
	rep := WatchReport{Spec: sum.Spec, BaselineRuns: len(base), Wall: sum.Wall}
	if len(base) < tol.MinRuns {
		rep.Reasons = append(rep.Reasons, fmt.Sprintf("baseline warming (%d of %d runs)", len(base), tol.MinRuns))
		return rep
	}
	walls := make([]float64, len(base))
	for i, b := range base {
		walls[i] = b.Wall
	}
	// Nearest rank: an even-sized window takes the lower middle, no
	// interpolation, so the baseline is always an archived makespan.
	rep.BaselineWall = Percentile(walls, 50)
	if rep.BaselineWall > 0 {
		rep.Ratio = sum.Wall / rep.BaselineWall
	}
	if rep.BaselineWall > 0 && sum.Wall > rep.BaselineWall*tol.WallFactor {
		rep.Flagged = true
		rep.Reasons = append(rep.Reasons, fmt.Sprintf("wall %.6fs exceeds baseline %.6fs x %.2f", sum.Wall, rep.BaselineWall, tol.WallFactor))
	}
	if tol.CheckEnergies && sum.EnergiesHash != "" {
		if want, ok := consensusHash(base); ok && want != sum.EnergiesHash {
			rep.Flagged = true
			rep.Reasons = append(rep.Reasons, fmt.Sprintf("energies hash %s diverges from archived consensus %s", sum.EnergiesHash, want))
		}
	}
	return rep
}

// consensusHash reports the baseline's unanimous energies hash, if any.
// Runs without a hash are ignored; any disagreement (different seeds, a
// chaos cohort) means no consensus and no determinism judgement.
func consensusHash(base []RunSummary) (string, bool) {
	want := ""
	for _, b := range base {
		if b.EnergiesHash == "" {
			continue
		}
		if want == "" {
			want = b.EnergiesHash
			continue
		}
		if b.EnergiesHash != want {
			return "", false
		}
	}
	return want, want != ""
}
