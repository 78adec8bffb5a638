package harness_test

import (
	"reflect"
	"strings"
	"testing"

	"opalperf/internal/fault"
	"opalperf/internal/harness"
	"opalperf/internal/schema"
)

// Every field of the run schema carries a key: a field without one would
// be invisible to the scenario decoder and to every default and range.
func TestConfigFieldsCarryKeys(t *testing.T) {
	var walk func(reflect.Type, string)
	walk = func(typ reflect.Type, path string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Tag.Get("key") == "" {
				t.Errorf("%s.%s has no key tag", path, f.Name)
			}
			if ft := f.Type; ft.Kind() == reflect.Struct || (ft.Kind() == reflect.Pointer && ft.Elem().Kind() == reflect.Struct) {
				if ft.Kind() == reflect.Pointer {
					ft = ft.Elem()
				}
				walk(ft, path+"."+f.Name)
			}
		}
	}
	walk(reflect.TypeOf(harness.Config{}), "Config")
}

// A filled-in Config compiles to the run the front ends always built: a
// uniform fault spec is fault.Uniform, the options land in md.Options.
func TestConfigRunSpec(t *testing.T) {
	cfg := harness.Config{
		Fleet:   harness.Fleet{Size: "small", Scale: 0.05, Servers: 2, Steps: 3},
		Options: harness.OptionsSpec{Cutoff: 10, Seed: 4},
		Faults:  &harness.FaultSpec{Seed: 7, Rate: 0.02},
	}
	schema.Fill(&cfg)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	spec, err := cfg.RunSpec(harness.Sizes(0.05)["small"])
	if err != nil {
		t.Fatal(err)
	}
	if want := fault.Uniform(7, 0.02); *spec.Faults != want {
		t.Fatalf("faults %+v, want %+v", *spec.Faults, want)
	}
	o := spec.Opts
	if spec.Platform.Name != "Cray J90 Classic" || o.Cutoff != 10 || o.UpdateEvery != 1 || o.Seed != 4 || spec.Servers != 2 || spec.Steps != 3 {
		t.Fatalf("compiled spec wrong: platform %s, %+v", spec.Platform.Name, o)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		mut  func(*harness.Config)
		want string
	}{
		{func(c *harness.Config) { c.Fleet.Scale = 2 }, "fleet.scale 2 outside [0.01, 1]"},
		{func(c *harness.Config) { c.Fleet.Platform = "pdp11" }, "fleet.platform"},
		{func(c *harness.Config) { c.Fleet.Size = "tiny" }, `fleet.size "tiny"`},
		{func(c *harness.Config) { c.Options.Strategy = "random" }, "options.strategy"},
		{func(c *harness.Config) { c.Options.LoD = "on" }, "options.lod"},
		{func(c *harness.Config) { c.Options.Accounting, c.Options.SelfHeal = true, true }, "incompatible"},
		{func(c *harness.Config) { c.Fleet.Servers, c.Options.SelfHeal = 0, true }, "needs a parallel fleet"},
		{func(c *harness.Config) { c.Faults = &harness.FaultSpec{Rate: -0.1} }, "faults.rate -0.1 outside [0, 1]"},
	} {
		cfg := harness.Config{Fleet: harness.Fleet{Servers: 2, Steps: 3}}
		schema.Fill(&cfg)
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate = %v, want %q", err, tc.want)
		}
	}
}
