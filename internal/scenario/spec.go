// Package scenario is the declarative chaos layer: YAML scenario files
// describing a fleet, timed events (kills, fault windows, checkpoints,
// restarts) and assertions (bit-identical energies, oracle anomalies,
// heal budgets, LoD fallback counts, makespan tolerances), compiled onto
// the existing md.Options / fault.KillSchedule / supervise / oracle / LoD
// wiring and swept over seeds.  The design follows Cornebize & Legrand
// ("Variability Matters"): the operating conditions a performance model
// is trusted under must be enumerable, reviewable inputs — a checked-in
// corpus — not whatever ad-hoc flags someone remembered to script.
package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"opalperf/internal/harness"
	"opalperf/internal/schema"
)

// Spec is one declarative scenario: a run configuration (the one run
// schema, harness.Config, inline as the fleet, options and faults blocks)
// plus the kill sweep, timed events and assertions that make it a chaos
// test.  Keys, defaults and single-field ranges are the field tags
// (internal/schema); Validate holds the rules between fields.
type Spec struct {
	Name        string `key:"name"`
	Description string `key:"description"`
	harness.Config
	Kills  *KillsSpec `key:"kills"`
	Events []Event    `key:"events"`
	Assert Assertions `key:"assert"`

	// File is the path the spec was loaded from ("" for inline specs).
	File string
}

// KillsSpec draws a seeded administrative kill schedule over
// steps x servers (fault.Kills): before each step every rank dies
// independently with probability Rate.  Sweep seeds offset Seed.
type KillsSpec struct {
	Seed uint64  `key:"seed"`
	Rate float64 `key:"rate" gt:"0" max:"1"`
}

// At pins an event to a simulation step.
type At struct {
	Step int `key:"step" required:"true"`
}

// Event is one timed scenario event.
type Event struct {
	At     At     `key:"at" required:"true"`
	Action string `key:"action"` // kill_server | inject_fault | checkpoint | restart
	// Rank is the victim server for kill_server.
	Rank int `key:"rank"`
	// Rate/Seed/Until parameterize inject_fault: a uniform fault plane
	// active in the step window [At.Step, Until.Step) — or to the end of
	// the run when Until is nil.
	Rate  float64 `key:"rate" min:"0" max:"1"`
	Seed  uint64  `key:"seed"`
	Until *At     `key:"until"`
}

// OracleAssert arms the model-in-the-loop oracle and asserts on its
// verdict.
type OracleAssert struct {
	// Anomaly asserts whether at least one anomaly fires.
	Anomaly bool `key:"anomaly"`
	// Terms, when non-empty with Anomaly, asserts every flagged anomaly
	// is attributed to one of these model terms (par, seq, comm, sync).
	Terms []string `key:"terms"`
	// Window is the oracle evaluation window in steps.
	Window int `key:"window" default:"2" min:"1"`
}

// Assertions is the declarative check vocabulary.  Nil pointers mean
// "not asserted".
type Assertions struct {
	// EnergiesBitIdentical compares every step's physics and the final
	// coordinates against a fault-free reference run of the same fleet
	// (events, faults, kills and checkpointing stripped).
	EnergiesBitIdentical bool `key:"energies_bit_identical"`
	// WallNotBelowReference asserts the run's virtual makespan is no
	// smaller than the fault-free reference's (faults only stretch).
	WallNotBelowReference bool `key:"wall_not_below_reference"`
	// MakespanFactor asserts wall <= factor * reference wall.
	MakespanFactor *float64 `key:"makespan_factor" gt:"0"`
	// FinalEnergyRelTol asserts the final total energy agrees with the
	// fault-free reference within this relative tolerance — the check for
	// runs where graceful degradation regroups the floating-point partial
	// sums and bit-identity cannot hold.
	FinalEnergyRelTol *float64 `key:"final_energy_rel_tol" gt:"0"`
	// RespawnsEqualKills asserts Result.Respawns equals the total kills
	// the schedule and kill_server events deliver (restart legs re-kill
	// replayed steps; the expectation accounts for that).
	RespawnsEqualKills bool `key:"respawns_equal_kills"`
	// Respawns / Recoveries assert exact counter values.
	Respawns   *int `key:"respawns" min:"0"`
	Recoveries *int `key:"recoveries" min:"0"`
	// HealWithinSeconds bounds Result.RespawnSeconds (virtual seconds).
	HealWithinSeconds *float64 `key:"heal_within_seconds" gt:"0"`
	// CheckpointsMin asserts at least this many checkpoints were
	// captured.
	CheckpointsMin *int `key:"checkpoints_min" min:"0"`
	// Converged asserts the minimizer's convergence flag.
	Converged *bool `key:"converged"`
	// LoD phase-count bounds (per-connection counters, summed over
	// restart legs).
	LoDMacroMin    *int `key:"lod_macro_min" min:"0"`
	LoDMacroMax    *int `key:"lod_macro_max" min:"0"`
	LoDFallbackMin *int `key:"lod_fallback_min" min:"0"`
	LoDFallbackMax *int `key:"lod_fallback_max" min:"0"`
	// Oracle arms the model oracle and asserts on anomalies.
	Oracle *OracleAssert `key:"oracle"`
}

// Actions and term names the schema accepts.
const (
	ActKillServer  = "kill_server"
	ActInjectFault = "inject_fault"
	ActCheckpoint  = "checkpoint"
	ActRestart     = "restart"
)

var validTerms = map[string]bool{"par": true, "seq": true, "comm": true, "sync": true}

// eventKeys are the action-specific keys each action takes.
var eventKeys = map[string][]string{
	ActKillServer:  {"rank"},
	ActInjectFault: {"rate", "seed", "until"},
	ActCheckpoint:  {},
	ActRestart:     {},
}

// CheckKeys holds an event to its action's keys: a key meant for another
// action is an error, not a silently ignored parameter, and kill_server
// names its victim.
func (ev *Event) CheckKeys(m map[string]any) error {
	own, ok := eventKeys[ev.Action]
	if !ok {
		return fmt.Errorf("unknown action %q (want kill_server, inject_fault, checkpoint or restart)", ev.Action)
	}
	for _, k := range []string{"rank", "rate", "seed", "until"} {
		if _, set := m[k]; set && !slices.Contains(own, k) {
			return fmt.Errorf("key %q does not apply to action %q", k, ev.Action)
		}
	}
	if _, set := m["rank"]; ev.Action == ActKillServer && !set {
		return fmt.Errorf("kill_server needs a rank")
	}
	return nil
}

// Parse decodes one scenario document and validates it.
func Parse(src []byte) (*Spec, error) {
	tree, err := ParseYAML(src)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	spec := &Spec{}
	if err := schema.Decode(tree, spec); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return spec, nil
}

// Load reads and parses one scenario file.
func Load(path string) (*Spec, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	spec, err := Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	spec.File = path
	return spec, nil
}

// LoadDir loads every *.yaml/*.yml file under dir (non-recursive),
// sorted by file name.  Scenario names must be unique across the set.
func LoadDir(dir string) ([]*Spec, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	var specs []*Spec
	seen := map[string]string{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		ext := filepath.Ext(e.Name())
		if ext != ".yaml" && ext != ".yml" {
			continue
		}
		spec, err := Load(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[spec.Name]; dup {
			return nil, fmt.Errorf("scenario: duplicate scenario name %q (%s and %s)", spec.Name, prev, spec.File)
		}
		seen[spec.Name] = spec.File
		specs = append(specs, spec)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].File < specs[j].File })
	return specs, nil
}

// ---- validation ------------------------------------------------------

// Validate checks the spec's internal consistency: the name, the tagged
// ranges, the run configuration, event ordering and assertion
// applicability.  It returns the first violation.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("missing name")
	}
	for _, r := range s.Name {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
			return fmt.Errorf("name %q: want lower-case letters, digits and dashes", s.Name)
		}
	}
	if err := schema.Check(s); err != nil {
		return err
	}
	if err := s.Config.Validate(); err != nil {
		return err
	}
	// Kills need self-healing, and self-healing needs a parallel fleet
	// (Config.Validate).
	f, o := &s.Fleet, &s.Options
	if s.Kills != nil && !o.SelfHeal {
		return fmt.Errorf("kills needs options.self_heal: the administrative schedule is consumed by the self-healing supervisor")
	}

	restarts := 0
	var injectRate float64
	var injectSeed uint64
	injectSeen := false
	for i, ev := range s.Events {
		where := fmt.Sprintf("events[%d] (%s)", i, ev.Action)
		if (ev.Action == ActKillServer || ev.Action == ActInjectFault) && (ev.At.Step < 0 || ev.At.Step >= f.Steps) {
			return fmt.Errorf("%s: step %d outside the run [0, %d)", where, ev.At.Step, f.Steps)
		}
		switch ev.Action {
		case ActKillServer:
			if !o.SelfHeal {
				return fmt.Errorf("%s: needs options.self_heal", where)
			}
			if ev.Rank < 0 || ev.Rank >= f.Servers {
				return fmt.Errorf("%s: rank %d outside the fleet [0, %d)", where, ev.Rank, f.Servers)
			}
		case ActInjectFault:
			if ev.Rate <= 0 {
				return fmt.Errorf("%s: needs a positive rate", where)
			}
			if ev.Until != nil && ev.Until.Step <= ev.At.Step {
				return fmt.Errorf("%s: until step %d not after start step %d", where, ev.Until.Step, ev.At.Step)
			}
			if s.Faults != nil {
				return fmt.Errorf("%s: conflicts with the run-wide faults block — one fault plane per run", where)
			}
			if injectSeen && (ev.Rate != injectRate || ev.Seed != injectSeed) {
				return fmt.Errorf("%s: all inject_fault windows share one plane; rate/seed must match the first window", where)
			}
			injectRate, injectSeed, injectSeen = ev.Rate, ev.Seed, true
		case ActCheckpoint:
			if ev.At.Step < 1 || ev.At.Step > f.Steps {
				return fmt.Errorf("%s: step %d outside [1, %d] (a checkpoint lands after a completed step)", where, ev.At.Step, f.Steps)
			}
		case ActRestart:
			restarts++
			if restarts > 1 {
				return fmt.Errorf("%s: at most one restart event per scenario", where)
			}
			if ev.At.Step < 1 || ev.At.Step >= f.Steps {
				return fmt.Errorf("%s: step %d outside [1, %d) — the restarted leg needs steps left to run", where, ev.At.Step, f.Steps)
			}
		default:
			return fmt.Errorf("%s: unknown action", where)
		}
	}

	a := &s.Assert
	if a.Oracle != nil {
		if f.Servers <= 0 {
			return fmt.Errorf("assert.oracle needs a parallel fleet: the model predicts the client/server decomposition")
		}
		if restarts > 0 {
			return fmt.Errorf("assert.oracle is incompatible with a restart event (windows do not span legs)")
		}
		for _, t := range a.Oracle.Terms {
			if !validTerms[t] {
				return fmt.Errorf("assert.oracle.terms: unknown model term %q (want par, seq, comm or sync)", t)
			}
		}
	}
	isCheckpoint := func(ev Event) bool { return ev.Action == ActCheckpoint }
	if a.CheckpointsMin != nil && o.CheckpointEvery == 0 && !slices.ContainsFunc(s.Events, isCheckpoint) {
		return fmt.Errorf("assert.checkpoints_min needs checkpoint events or options.checkpoint_every")
	}
	if f.Servers <= 0 && (a.LoDMacroMin != nil || a.LoDFallbackMin != nil) {
		return fmt.Errorf("LoD assertions need a parallel fleet (fleet.servers > 0)")
	}
	return nil
}

// Summary renders a one-line description of the scenario's moving parts
// for `scenario list`.
func (s *Spec) Summary() string {
	var parts []string
	if s.Faults != nil {
		parts = append(parts, "faults")
	}
	if s.Kills != nil {
		parts = append(parts, "kill-sweep")
	}
	counts := map[string]int{}
	for _, ev := range s.Events {
		counts[ev.Action]++
	}
	for _, a := range []string{ActKillServer, ActInjectFault, ActCheckpoint, ActRestart} {
		if counts[a] > 0 {
			parts = append(parts, fmt.Sprintf("%s x%d", a, counts[a]))
		}
	}
	if len(parts) == 0 {
		return "fault-free"
	}
	return strings.Join(parts, ", ")
}

// AssertNames lists the asserted checks by key, in declaration order,
// for listings.
func (s *Spec) AssertNames() []string {
	return schema.NonZero(&s.Assert)
}
