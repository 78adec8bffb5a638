package harness

import (
	"fmt"
	"slices"

	"opalperf/internal/fault"
	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/pairlist"
	"opalperf/internal/platform"
	"opalperf/internal/schema"
)

// Config is the one run schema: the fleet, the engine options and the
// fault plane of a run, as every front end states them.  Scenario files
// decode into it, opald's JobSpec projects onto it and opal fills it from
// its flags.  The field tags declare each key, default and single-field
// range once (internal/schema); Validate adds the rules that tie fields
// together, and RunSpec is the one place a configuration becomes
// md.Options.
type Config struct {
	Fleet   Fleet       `key:"fleet"`
	Options OptionsSpec `key:"options"`
	Faults  *FaultSpec  `key:"faults"`
}

// Fleet is the run's shape: platform, problem and fleet width.
type Fleet struct {
	Platform string  `key:"platform" default:"j90"`
	Size     string  `key:"size" default:"small"`                 // small | medium | large
	Scale    float64 `key:"scale" default:"1" min:"0.01" max:"1"` // problem scale factor
	Servers  int     `key:"servers" min:"0"`                      // computation servers (0 = serial engine)
	Steps    int     `key:"steps" gt:"0"`
}

// OptionsSpec is the declarative surface of md.Options.
type OptionsSpec struct {
	Cutoff          float64 `key:"cutoff" default:"60" gt:"0"` // 60 is the paper's ineffective cut-off
	UpdateEvery     int     `key:"update_every" default:"1" min:"1"`
	Accounting      bool    `key:"accounting"`
	Minimize        bool    `key:"minimize" default:"true"`
	SelfHeal        bool    `key:"self_heal"`
	FaultTolerant   bool    `key:"fault_tolerant"`
	MaxRespawns     int     `key:"max_respawns" min:"0"`
	Seed            int64   `key:"seed"`
	Strategy        string  `key:"strategy" default:"lcg"` // lcg | round-robin | folded
	CellList        bool    `key:"cell_list"`
	LoD             string  `key:"lod"` // "" | auto | off
	CheckpointEvery int     `key:"checkpoint_every" min:"0"`
	InitTemperature float64 `key:"init_temperature"`
	Thermostat      float64 `key:"thermostat"`
	Dt              float64 `key:"dt"`
}

// FaultSpec parameterizes the run-wide seeded fault plane.  Rate is the
// uniform shorthand (every kind at the same rate); the per-kind rates
// override it individually.
type FaultSpec struct {
	Seed          uint64   `key:"seed"`
	Rate          float64  `key:"rate" min:"0" max:"1"`
	DropRate      *float64 `key:"drop_rate" min:"0" max:"1"`
	DupRate       *float64 `key:"dup_rate" min:"0" max:"1"`
	DelayRate     *float64 `key:"delay_rate" min:"0" max:"1"`
	CrashRate     *float64 `key:"crash_rate" min:"0" max:"1"`
	StragglerRate *float64 `key:"straggler_rate" min:"0" max:"1"`
}

// Validate checks every tagged range, the names the run resolves
// (platform, size, pair strategy, level of detail — RunSpec's lookups)
// and the rules that tie fields together.
func (c *Config) Validate() error {
	if err := schema.Check(c); err != nil {
		return err
	}
	if _, err := c.RunSpec(nil); err != nil {
		return err
	}
	if !slices.Contains([]string{"small", "medium", "large"}, c.Fleet.Size) {
		return fmt.Errorf("fleet.size %q: want small, medium or large", c.Fleet.Size)
	}
	o := &c.Options
	if o.Accounting && (o.SelfHeal || o.FaultTolerant) {
		return fmt.Errorf("options.accounting is incompatible with self_heal/fault_tolerant (heal-time calls bypass the phase barriers)")
	}
	if c.Fleet.Servers <= 0 && (o.SelfHeal || o.FaultTolerant) {
		return fmt.Errorf("options.self_heal/fault_tolerant needs a parallel fleet (fleet.servers > 0)")
	}
	return nil
}

// RunSpec compiles the configuration onto the harness for the given
// system (generated from the fleet's size and scale, read from a file or
// restored from a checkpoint — the caller's choice).  The caller owns the
// result and attaches hooks, sinks and kill schedules to it.
func (c Config) RunSpec(sys *molecule.System) (RunSpec, error) {
	pl, err := platform.ByName(c.Fleet.Platform)
	if err != nil {
		return RunSpec{}, fmt.Errorf("fleet.platform: %w", err)
	}
	o := &c.Options
	strat, err := pairlist.ParseStrategy(o.Strategy)
	if err != nil {
		return RunSpec{}, fmt.Errorf("options.strategy: %w", err)
	}
	lod, err := md.ParseLoDMode(o.LoD)
	if err != nil {
		return RunSpec{}, fmt.Errorf("options.lod: %w", err)
	}
	spec := RunSpec{
		Platform: pl,
		Sys:      sys,
		Servers:  c.Fleet.Servers,
		Steps:    c.Fleet.Steps,
		Opts: md.Options{
			Cutoff:          o.Cutoff,
			UpdateEvery:     o.UpdateEvery,
			Strategy:        strat,
			Seed:            o.Seed,
			Accounting:      o.Accounting,
			Minimize:        o.Minimize,
			Dt:              o.Dt,
			InitTemperature: o.InitTemperature,
			Thermostat:      o.Thermostat,
			CellList:        o.CellList,
			SelfHeal:        o.SelfHeal,
			FaultTolerant:   o.FaultTolerant,
			MaxRespawns:     o.MaxRespawns,
			CheckpointEvery: o.CheckpointEvery,
			LoD:             lod,
		},
	}
	if f := c.Faults; f != nil {
		fc := fault.Uniform(f.Seed, f.Rate)
		override := func(dst, rate *float64) {
			if rate != nil {
				*dst = *rate
			}
		}
		override(&fc.DropRate, f.DropRate)
		override(&fc.DupRate, f.DupRate)
		override(&fc.DelayRate, f.DelayRate)
		override(&fc.CrashRate, f.CrashRate)
		override(&fc.StragglerRate, f.StragglerRate)
		spec.Faults = &fc
	}
	return spec, nil
}
