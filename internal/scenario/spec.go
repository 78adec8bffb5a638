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
	"sort"
	"strings"

	"opalperf/internal/md"
	"opalperf/internal/pairlist"
	"opalperf/internal/platform"
)

// Spec is one declarative scenario.
type Spec struct {
	Name        string
	Description string
	Fleet       Fleet
	Options     OptionsSpec
	Faults      *FaultSpec
	Kills       *KillsSpec
	Events      []Event
	Assert      Assertions

	// File is the path the spec was loaded from ("" for inline specs).
	File string
}

// Fleet is the run's shape: platform, problem and fleet width.
type Fleet struct {
	Platform string  // platform key (default "j90")
	Size     string  // small | medium | large (default "small")
	Scale    float64 // problem scale factor (default 1.0; corpus uses 0.02)
	Servers  int     // computation servers (0 = serial engine)
	Steps    int     // simulation steps (must be positive)
}

// OptionsSpec is the declarative surface of md.Options.
type OptionsSpec struct {
	Cutoff          float64 // default 60 (the paper's ineffective cut-off)
	UpdateEvery     int     // default 1
	Accounting      bool
	Minimize        bool // default true
	SelfHeal        bool
	FaultTolerant   bool
	MaxRespawns     int
	Seed            int64
	Strategy        string // lcg | round-robin | folded (default lcg)
	CellList        bool
	LoD             string // "" | auto | off (default auto)
	CheckpointEvery int
	InitTemperature float64
	Thermostat      float64
	Dt              float64
}

// FaultSpec parameterizes the run-wide seeded fault plane.  Rate is the
// uniform shorthand (every kind at the same rate); the per-kind rates
// override it individually.
type FaultSpec struct {
	Seed          uint64
	Rate          float64
	DropRate      *float64
	DupRate       *float64
	DelayRate     *float64
	CrashRate     *float64
	StragglerRate *float64
}

// KillsSpec draws a seeded administrative kill schedule over
// steps x servers (fault.Kills): before each step every rank dies
// independently with probability Rate.  Sweep seeds offset Seed.
type KillsSpec struct {
	Seed uint64
	Rate float64
}

// At pins an event to a simulation step.
type At struct {
	Step int
}

// Event is one timed scenario event.
type Event struct {
	At     At
	Action string // kill_server | inject_fault | checkpoint | restart
	// Rank is the victim server for kill_server.
	Rank int
	// Rate/Seed/Until parameterize inject_fault: a uniform fault plane
	// active in the step window [At.Step, Until.Step) — or to the end of
	// the run when Until is nil.
	Rate  float64
	Seed  uint64
	Until *At
}

// OracleAssert arms the model-in-the-loop oracle and asserts on its
// verdict.
type OracleAssert struct {
	// Anomaly asserts whether at least one anomaly fires.
	Anomaly bool
	// Terms, when non-empty with Anomaly, asserts every flagged anomaly
	// is attributed to one of these model terms (par, seq, comm, sync).
	Terms []string
	// Window is the oracle evaluation window in steps (default 2).
	Window int
}

// Assertions is the declarative check vocabulary.  Nil pointers mean
// "not asserted".
type Assertions struct {
	// EnergiesBitIdentical compares every step's physics and the final
	// coordinates against a fault-free reference run of the same fleet
	// (events, faults, kills and checkpointing stripped).
	EnergiesBitIdentical bool
	// WallNotBelowReference asserts the run's virtual makespan is no
	// smaller than the fault-free reference's (faults only stretch).
	WallNotBelowReference bool
	// MakespanFactor asserts wall <= factor * reference wall.
	MakespanFactor *float64
	// FinalEnergyRelTol asserts the final total energy agrees with the
	// fault-free reference within this relative tolerance — the check for
	// runs where graceful degradation regroups the floating-point partial
	// sums and bit-identity cannot hold.
	FinalEnergyRelTol *float64
	// RespawnsEqualKills asserts Result.Respawns equals the total kills
	// the schedule and kill_server events deliver (restart legs re-kill
	// replayed steps; the expectation accounts for that).
	RespawnsEqualKills bool
	// Respawns / Recoveries assert exact counter values.
	Respawns   *int
	Recoveries *int
	// HealWithinSeconds bounds Result.RespawnSeconds (virtual seconds).
	HealWithinSeconds *float64
	// CheckpointsMin asserts at least this many checkpoints were
	// captured.
	CheckpointsMin *int
	// Converged asserts the minimizer's convergence flag.
	Converged *bool
	// LoD phase-count bounds (per-connection counters, summed over
	// restart legs).
	LoDMacroMin    *int
	LoDMacroMax    *int
	LoDFallbackMin *int
	LoDFallbackMax *int
	// Oracle arms the model oracle and asserts on anomalies.
	Oracle *OracleAssert
}

// Actions and term names the schema accepts.
const (
	ActKillServer  = "kill_server"
	ActInjectFault = "inject_fault"
	ActCheckpoint  = "checkpoint"
	ActRestart     = "restart"
)

var validTerms = map[string]bool{"par": true, "seq": true, "comm": true, "sync": true}

// Parse decodes one scenario document and validates it.
func Parse(src []byte) (*Spec, error) {
	tree, err := ParseYAML(src)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	spec, err := decodeSpec(tree)
	if err != nil {
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

// ---- strict decoding -------------------------------------------------

// dec tracks the decode position for error messages and rejects unknown
// keys — an unrecognized assertion silently dropped would be a test that
// always passes.
type dec struct {
	path []string
}

func (d *dec) at(key string) string {
	if len(d.path) == 0 {
		return key
	}
	return strings.Join(d.path, ".") + "." + key
}

func (d *dec) push(key string) { d.path = append(d.path, key) }
func (d *dec) pop()            { d.path = d.path[:len(d.path)-1] }

func (d *dec) errf(format string, args ...any) error {
	prefix := strings.Join(d.path, ".")
	if prefix != "" {
		prefix += ": "
	}
	return fmt.Errorf("%s%s", prefix, fmt.Sprintf(format, args...))
}

// mapNode asserts v is a mapping and returns it with its sorted keys.
func (d *dec) mapNode(v any) (map[string]any, []string, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return nil, nil, d.errf("expected a mapping, got %s", typeName(v))
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return m, keys, nil
}

func typeName(v any) string {
	switch v.(type) {
	case nil:
		return "null"
	case map[string]any:
		return "a mapping"
	case []any:
		return "a sequence"
	case string:
		return "a string"
	case bool:
		return "a boolean"
	case int64:
		return "an integer"
	case float64:
		return "a float"
	}
	return fmt.Sprintf("%T", v)
}

func (d *dec) str(key string, v any) (string, error) {
	s, ok := v.(string)
	if !ok {
		return "", d.errf("%s: expected a string, got %s", key, typeName(v))
	}
	return s, nil
}

func (d *dec) boolean(key string, v any) (bool, error) {
	b, ok := v.(bool)
	if !ok {
		return false, d.errf("%s: expected a boolean, got %s", key, typeName(v))
	}
	return b, nil
}

func (d *dec) integer(key string, v any) (int, error) {
	n, ok := v.(int64)
	if !ok {
		return 0, d.errf("%s: expected an integer, got %s", key, typeName(v))
	}
	if n > int64(int(^uint(0)>>1)) || n < -int64(int(^uint(0)>>1))-1 {
		return 0, d.errf("%s: integer %d out of range", key, n)
	}
	return int(n), nil
}

func (d *dec) unsigned(key string, v any) (uint64, error) {
	n, ok := v.(int64)
	if !ok || n < 0 {
		return 0, d.errf("%s: expected a non-negative integer, got %v", key, v)
	}
	return uint64(n), nil
}

func (d *dec) float(key string, v any) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case int64:
		return float64(x), nil
	}
	return 0, d.errf("%s: expected a number, got %s", key, typeName(v))
}

func (d *dec) rate(key string, v any) (float64, error) {
	f, err := d.float(key, v)
	if err != nil {
		return 0, err
	}
	if f < 0 || f > 1 {
		return 0, d.errf("%s: rate %v outside [0, 1]", key, f)
	}
	return f, nil
}

func (d *dec) atNode(key string, v any) (At, error) {
	d.push(key)
	defer d.pop()
	m, keys, err := d.mapNode(v)
	if err != nil {
		return At{}, err
	}
	var at At
	var hasStep bool
	for _, k := range keys {
		switch k {
		case "step":
			at.Step, err = d.integer(k, m[k])
			if err != nil {
				return At{}, err
			}
			hasStep = true
		default:
			return At{}, d.errf("unknown key %q (want step)", k)
		}
	}
	if !hasStep {
		return At{}, d.errf("missing step")
	}
	return at, nil
}

func decodeSpec(tree any) (*Spec, error) {
	d := &dec{}
	root, keys, err := d.mapNode(tree)
	if err != nil {
		return nil, err
	}
	spec := &Spec{
		Fleet:   Fleet{Platform: "j90", Size: "small", Scale: 1.0},
		Options: OptionsSpec{Cutoff: 60, UpdateEvery: 1, Minimize: true, Strategy: "lcg"},
	}
	for _, k := range keys {
		v := root[k]
		switch k {
		case "name":
			if spec.Name, err = d.str(k, v); err != nil {
				return nil, err
			}
		case "description":
			if spec.Description, err = d.str(k, v); err != nil {
				return nil, err
			}
		case "fleet":
			if err = d.decodeFleet(v, &spec.Fleet); err != nil {
				return nil, err
			}
		case "options":
			if err = d.decodeOptions(v, &spec.Options); err != nil {
				return nil, err
			}
		case "faults":
			spec.Faults = &FaultSpec{}
			if err = d.decodeFaults(v, spec.Faults); err != nil {
				return nil, err
			}
		case "kills":
			spec.Kills = &KillsSpec{}
			if err = d.decodeKills(v, spec.Kills); err != nil {
				return nil, err
			}
		case "events":
			if spec.Events, err = d.decodeEvents(v); err != nil {
				return nil, err
			}
		case "assert":
			if err = d.decodeAssert(v, &spec.Assert); err != nil {
				return nil, err
			}
		default:
			return nil, d.errf("unknown key %q", k)
		}
	}
	return spec, nil
}

func (d *dec) decodeFleet(v any, f *Fleet) error {
	d.push("fleet")
	defer d.pop()
	m, keys, err := d.mapNode(v)
	if err != nil {
		return err
	}
	for _, k := range keys {
		switch k {
		case "platform":
			f.Platform, err = d.str(k, m[k])
		case "size":
			f.Size, err = d.str(k, m[k])
		case "scale":
			f.Scale, err = d.float(k, m[k])
		case "servers":
			f.Servers, err = d.integer(k, m[k])
		case "steps":
			f.Steps, err = d.integer(k, m[k])
		default:
			err = d.errf("unknown key %q", k)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (d *dec) decodeOptions(v any, o *OptionsSpec) error {
	d.push("options")
	defer d.pop()
	m, keys, err := d.mapNode(v)
	if err != nil {
		return err
	}
	for _, k := range keys {
		switch k {
		case "cutoff":
			o.Cutoff, err = d.float(k, m[k])
		case "update_every":
			o.UpdateEvery, err = d.integer(k, m[k])
		case "accounting":
			o.Accounting, err = d.boolean(k, m[k])
		case "minimize":
			o.Minimize, err = d.boolean(k, m[k])
		case "self_heal":
			o.SelfHeal, err = d.boolean(k, m[k])
		case "fault_tolerant":
			o.FaultTolerant, err = d.boolean(k, m[k])
		case "max_respawns":
			o.MaxRespawns, err = d.integer(k, m[k])
		case "seed":
			var n int
			n, err = d.integer(k, m[k])
			o.Seed = int64(n)
		case "strategy":
			o.Strategy, err = d.str(k, m[k])
		case "cell_list":
			o.CellList, err = d.boolean(k, m[k])
		case "lod":
			o.LoD, err = d.str(k, m[k])
		case "checkpoint_every":
			o.CheckpointEvery, err = d.integer(k, m[k])
		case "init_temperature":
			o.InitTemperature, err = d.float(k, m[k])
		case "thermostat":
			o.Thermostat, err = d.float(k, m[k])
		case "dt":
			o.Dt, err = d.float(k, m[k])
		default:
			err = d.errf("unknown key %q", k)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (d *dec) decodeFaults(v any, f *FaultSpec) error {
	d.push("faults")
	defer d.pop()
	m, keys, err := d.mapNode(v)
	if err != nil {
		return err
	}
	setRate := func(k string, dst **float64) error {
		r, err := d.rate(k, m[k])
		if err != nil {
			return err
		}
		*dst = &r
		return nil
	}
	for _, k := range keys {
		switch k {
		case "seed":
			f.Seed, err = d.unsigned(k, m[k])
		case "rate":
			f.Rate, err = d.rate(k, m[k])
		case "drop_rate":
			err = setRate(k, &f.DropRate)
		case "dup_rate":
			err = setRate(k, &f.DupRate)
		case "delay_rate":
			err = setRate(k, &f.DelayRate)
		case "crash_rate":
			err = setRate(k, &f.CrashRate)
		case "straggler_rate":
			err = setRate(k, &f.StragglerRate)
		default:
			err = d.errf("unknown key %q", k)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (d *dec) decodeKills(v any, ks *KillsSpec) error {
	d.push("kills")
	defer d.pop()
	m, keys, err := d.mapNode(v)
	if err != nil {
		return err
	}
	for _, k := range keys {
		switch k {
		case "seed":
			ks.Seed, err = d.unsigned(k, m[k])
		case "rate":
			ks.Rate, err = d.rate(k, m[k])
		default:
			err = d.errf("unknown key %q", k)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (d *dec) decodeEvents(v any) ([]Event, error) {
	d.push("events")
	defer d.pop()
	seq, ok := v.([]any)
	if !ok {
		return nil, d.errf("expected a sequence, got %s", typeName(v))
	}
	var events []Event
	for i, item := range seq {
		d.push(fmt.Sprintf("[%d]", i))
		ev, err := d.decodeEvent(item)
		d.pop()
		if err != nil {
			return nil, err
		}
		events = append(events, ev)
	}
	return events, nil
}

func (d *dec) decodeEvent(v any) (Event, error) {
	m, keys, err := d.mapNode(v)
	if err != nil {
		return Event{}, err
	}
	var ev Event
	var hasAt, hasRank bool
	extra := map[string]bool{}
	for _, k := range keys {
		switch k {
		case "at":
			if ev.At, err = d.atNode(k, m[k]); err != nil {
				return Event{}, err
			}
			hasAt = true
		case "action":
			if ev.Action, err = d.str(k, m[k]); err != nil {
				return Event{}, err
			}
		case "rank":
			if ev.Rank, err = d.integer(k, m[k]); err != nil {
				return Event{}, err
			}
			hasRank, extra[k] = true, true
		case "rate":
			if ev.Rate, err = d.rate(k, m[k]); err != nil {
				return Event{}, err
			}
			extra[k] = true
		case "seed":
			if ev.Seed, err = d.unsigned(k, m[k]); err != nil {
				return Event{}, err
			}
			extra[k] = true
		case "until":
			at, err := d.atNode(k, m[k])
			if err != nil {
				return Event{}, err
			}
			ev.Until = &at
			extra[k] = true
		default:
			return Event{}, d.errf("unknown key %q", k)
		}
	}
	if !hasAt {
		return Event{}, d.errf("missing at: {step: N}")
	}
	allowed := map[string][]string{
		ActKillServer:  {"rank"},
		ActInjectFault: {"rate", "seed", "until"},
		ActCheckpoint:  {},
		ActRestart:     {},
	}
	fields, ok := allowed[ev.Action]
	if !ok {
		return Event{}, d.errf("unknown action %q (want kill_server, inject_fault, checkpoint or restart)", ev.Action)
	}
	for _, f := range fields {
		delete(extra, f)
	}
	for k := range extra {
		return Event{}, d.errf("key %q does not apply to action %q", k, ev.Action)
	}
	if ev.Action == ActKillServer && !hasRank {
		return Event{}, d.errf("kill_server needs a rank")
	}
	return ev, nil
}

func (d *dec) decodeAssert(v any, a *Assertions) error {
	d.push("assert")
	defer d.pop()
	m, keys, err := d.mapNode(v)
	if err != nil {
		return err
	}
	intPtr := func(k string) (*int, error) {
		n, err := d.integer(k, m[k])
		if err != nil {
			return nil, err
		}
		return &n, nil
	}
	for _, k := range keys {
		switch k {
		case "energies_bit_identical":
			a.EnergiesBitIdentical, err = d.boolean(k, m[k])
		case "wall_not_below_reference":
			a.WallNotBelowReference, err = d.boolean(k, m[k])
		case "makespan_factor":
			var f float64
			if f, err = d.float(k, m[k]); err == nil {
				a.MakespanFactor = &f
			}
		case "final_energy_rel_tol":
			var f float64
			if f, err = d.float(k, m[k]); err == nil {
				a.FinalEnergyRelTol = &f
			}
		case "respawns_equal_kills":
			a.RespawnsEqualKills, err = d.boolean(k, m[k])
		case "respawns":
			a.Respawns, err = intPtr(k)
		case "recoveries":
			a.Recoveries, err = intPtr(k)
		case "heal_within_seconds":
			var f float64
			if f, err = d.float(k, m[k]); err == nil {
				a.HealWithinSeconds = &f
			}
		case "checkpoints_min":
			a.CheckpointsMin, err = intPtr(k)
		case "converged":
			var b bool
			if b, err = d.boolean(k, m[k]); err == nil {
				a.Converged = &b
			}
		case "lod_macro_min":
			a.LoDMacroMin, err = intPtr(k)
		case "lod_macro_max":
			a.LoDMacroMax, err = intPtr(k)
		case "lod_fallback_min":
			a.LoDFallbackMin, err = intPtr(k)
		case "lod_fallback_max":
			a.LoDFallbackMax, err = intPtr(k)
		case "oracle":
			a.Oracle = &OracleAssert{Window: 2}
			err = d.decodeOracle(m[k], a.Oracle)
		default:
			err = d.errf("unknown key %q", k)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (d *dec) decodeOracle(v any, o *OracleAssert) error {
	d.push("oracle")
	defer d.pop()
	m, keys, err := d.mapNode(v)
	if err != nil {
		return err
	}
	for _, k := range keys {
		switch k {
		case "anomaly":
			o.Anomaly, err = d.boolean(k, m[k])
		case "terms":
			seq, ok := m[k].([]any)
			if !ok {
				return d.errf("%s: expected a sequence, got %s", k, typeName(m[k]))
			}
			for _, item := range seq {
				s, ok := item.(string)
				if !ok {
					return d.errf("%s: expected term names, got %s", k, typeName(item))
				}
				o.Terms = append(o.Terms, s)
			}
		case "window":
			o.Window, err = d.integer(k, m[k])
		default:
			err = d.errf("unknown key %q", k)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- validation ------------------------------------------------------

// Validate checks the spec's internal consistency: ranges, event
// ordering, option compatibility, assertion applicability.  It returns
// the first violation.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("missing name")
	}
	for _, r := range s.Name {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
			return fmt.Errorf("name %q: want lower-case letters, digits and dashes", s.Name)
		}
	}
	f := &s.Fleet
	if _, err := platform.ByName(f.Platform); err != nil {
		return fmt.Errorf("fleet.platform: %w", err)
	}
	switch f.Size {
	case "small", "medium", "large":
	default:
		return fmt.Errorf("fleet.size %q: want small, medium or large", f.Size)
	}
	if f.Scale <= 0 {
		return fmt.Errorf("fleet.scale must be positive, have %v", f.Scale)
	}
	if f.Servers < 0 {
		return fmt.Errorf("fleet.servers must be non-negative, have %d", f.Servers)
	}
	if f.Steps <= 0 {
		return fmt.Errorf("fleet.steps must be positive, have %d", f.Steps)
	}
	o := &s.Options
	if o.UpdateEvery < 1 {
		return fmt.Errorf("options.update_every must be >= 1, have %d", o.UpdateEvery)
	}
	if o.Cutoff <= 0 {
		return fmt.Errorf("options.cutoff must be positive, have %v", o.Cutoff)
	}
	if o.CheckpointEvery < 0 {
		return fmt.Errorf("options.checkpoint_every must be non-negative, have %d", o.CheckpointEvery)
	}
	if o.MaxRespawns < 0 {
		return fmt.Errorf("options.max_respawns must be non-negative, have %d", o.MaxRespawns)
	}
	if _, err := pairlist.ParseStrategy(o.Strategy); err != nil {
		return fmt.Errorf("options.strategy: %w", err)
	}
	if _, err := md.ParseLoDMode(o.LoD); err != nil {
		return fmt.Errorf("options.lod: %w", err)
	}
	if o.Accounting && (o.SelfHeal || o.FaultTolerant) {
		return fmt.Errorf("options.accounting is incompatible with self_heal/fault_tolerant (heal-time calls bypass the phase barriers)")
	}
	if s.Kills != nil {
		if s.Kills.Rate <= 0 {
			return fmt.Errorf("kills.rate must be positive, have %v", s.Kills.Rate)
		}
		if !o.SelfHeal {
			return fmt.Errorf("kills needs options.self_heal: the administrative schedule is consumed by the self-healing supervisor")
		}
		if f.Servers <= 0 {
			return fmt.Errorf("kills needs a parallel fleet (fleet.servers > 0)")
		}
	}

	restarts := 0
	var injectRate float64
	var injectSeed uint64
	injectSeen := false
	for i, ev := range s.Events {
		where := fmt.Sprintf("events[%d] (%s)", i, ev.Action)
		switch ev.Action {
		case ActKillServer:
			if !o.SelfHeal {
				return fmt.Errorf("%s: needs options.self_heal", where)
			}
			if f.Servers <= 0 {
				return fmt.Errorf("%s: needs a parallel fleet (fleet.servers > 0)", where)
			}
			if ev.Rank < 0 || ev.Rank >= f.Servers {
				return fmt.Errorf("%s: rank %d outside the fleet [0, %d)", where, ev.Rank, f.Servers)
			}
			if ev.At.Step < 0 || ev.At.Step >= f.Steps {
				return fmt.Errorf("%s: step %d outside the run [0, %d)", where, ev.At.Step, f.Steps)
			}
		case ActInjectFault:
			if ev.Rate <= 0 {
				return fmt.Errorf("%s: needs a positive rate", where)
			}
			if ev.At.Step < 0 || ev.At.Step >= f.Steps {
				return fmt.Errorf("%s: step %d outside the run [0, %d)", where, ev.At.Step, f.Steps)
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
		if ev.Action != ActKillServer && ev.Action != ActInjectFault && f.Servers <= 0 && ev.Action == ActKillServer {
			return fmt.Errorf("%s: needs a parallel fleet", where)
		}
	}

	a := &s.Assert
	if a.MakespanFactor != nil && *a.MakespanFactor <= 0 {
		return fmt.Errorf("assert.makespan_factor must be positive, have %v", *a.MakespanFactor)
	}
	if a.FinalEnergyRelTol != nil && *a.FinalEnergyRelTol <= 0 {
		return fmt.Errorf("assert.final_energy_rel_tol must be positive, have %v", *a.FinalEnergyRelTol)
	}
	if a.HealWithinSeconds != nil && *a.HealWithinSeconds <= 0 {
		return fmt.Errorf("assert.heal_within_seconds must be positive, have %v", *a.HealWithinSeconds)
	}
	for _, p := range []struct {
		name string
		v    *int
	}{
		{"respawns", a.Respawns}, {"recoveries", a.Recoveries},
		{"checkpoints_min", a.CheckpointsMin},
		{"lod_macro_min", a.LoDMacroMin}, {"lod_macro_max", a.LoDMacroMax},
		{"lod_fallback_min", a.LoDFallbackMin}, {"lod_fallback_max", a.LoDFallbackMax},
	} {
		if p.v != nil && *p.v < 0 {
			return fmt.Errorf("assert.%s must be non-negative, have %d", p.name, *p.v)
		}
	}
	if a.Oracle != nil {
		if f.Servers <= 0 {
			return fmt.Errorf("assert.oracle needs a parallel fleet: the model predicts the client/server decomposition")
		}
		if restarts > 0 {
			return fmt.Errorf("assert.oracle is incompatible with a restart event (windows do not span legs)")
		}
		if a.Oracle.Window < 1 {
			return fmt.Errorf("assert.oracle.window must be >= 1, have %d", a.Oracle.Window)
		}
		for _, t := range a.Oracle.Terms {
			if !validTerms[t] {
				return fmt.Errorf("assert.oracle.terms: unknown model term %q (want par, seq, comm or sync)", t)
			}
		}
	}
	if (a.RespawnsEqualKills || a.Respawns != nil || a.HealWithinSeconds != nil) && !o.SelfHeal &&
		(s.Kills != nil || hasAction(s.Events, ActKillServer)) {
		return fmt.Errorf("respawn assertions need options.self_heal")
	}
	if a.CheckpointsMin != nil && o.CheckpointEvery == 0 && !hasAction(s.Events, ActCheckpoint) {
		return fmt.Errorf("assert.checkpoints_min needs checkpoint events or options.checkpoint_every")
	}
	if f.Servers <= 0 {
		for _, name := range []struct {
			set  bool
			what string
		}{
			{o.SelfHeal, "options.self_heal"},
			{o.FaultTolerant, "options.fault_tolerant"},
			{a.LoDMacroMin != nil || a.LoDFallbackMin != nil, "LoD assertions"},
		} {
			if name.set {
				return fmt.Errorf("%s needs a parallel fleet (fleet.servers > 0)", name.what)
			}
		}
	}
	return nil
}

func hasAction(events []Event, action string) bool {
	for _, ev := range events {
		if ev.Action == action {
			return true
		}
	}
	return false
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

// AssertNames lists the asserted checks in a stable order, for listings.
func (s *Spec) AssertNames() []string {
	a := &s.Assert
	var names []string
	add := func(cond bool, name string) {
		if cond {
			names = append(names, name)
		}
	}
	add(a.EnergiesBitIdentical, "energies_bit_identical")
	add(a.WallNotBelowReference, "wall_not_below_reference")
	add(a.MakespanFactor != nil, "makespan_factor")
	add(a.FinalEnergyRelTol != nil, "final_energy_rel_tol")
	add(a.RespawnsEqualKills, "respawns_equal_kills")
	add(a.Respawns != nil, "respawns")
	add(a.Recoveries != nil, "recoveries")
	add(a.HealWithinSeconds != nil, "heal_within_seconds")
	add(a.CheckpointsMin != nil, "checkpoints_min")
	add(a.Converged != nil, "converged")
	add(a.LoDMacroMin != nil, "lod_macro_min")
	add(a.LoDMacroMax != nil, "lod_macro_max")
	add(a.LoDFallbackMin != nil, "lod_fallback_min")
	add(a.LoDFallbackMax != nil, "lod_fallback_max")
	add(a.Oracle != nil, "oracle")
	return names
}
