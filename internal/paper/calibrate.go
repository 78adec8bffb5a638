package paper

import (
	"fmt"
	"strconv"

	"opalperf/internal/core"
	"opalperf/internal/expdesign"
	"opalperf/internal/harness"
	"opalperf/internal/molecule"
	"opalperf/internal/platform"
)

// Suite is the paper's calibration experiment (Section 2.3): a factorial
// design over the four performance factors — servers, problem size,
// cut-off and update frequency — run on the reference platform with the
// accounting instrumentation enabled.
type Suite struct {
	Platform   *platform.Platform
	Sizes      map[string]*molecule.System
	Steps      int
	MaxServers int
}

// NewSuite builds the default suite on the virtual Cray J90: 10
// simulation steps (the paper found them sufficient for reproducible
// timing), 1-7 servers and the given problem sizes.
func NewSuite(sizes map[string]*molecule.System) Suite {
	return Suite{
		Platform:   platform.J90(),
		Sizes:      sizes,
		Steps:      10,
		MaxServers: 7,
	}
}

// Factor and level names.
const (
	FactorServers = "servers"
	FactorSize    = "size"
	FactorCutoff  = "cutoff"
	FactorUpdate  = "update"

	LevelNoCutoff   = "60A"
	LevelWithCutoff = "10A"
	LevelFullUpdate = "full"
	LevelPartUpdate = "partial"
)

// Factors returns the experimental factors.  sizes selects which problem
// sizes participate (the full design uses all three; the paper's reduced
// design uses medium and large).
func (s Suite) Factors(sizes []string) []expdesign.Factor {
	servers := make([]string, s.MaxServers)
	for i := range servers {
		servers[i] = strconv.Itoa(i + 1)
	}
	return []expdesign.Factor{
		{Name: FactorServers, Levels: servers},
		{Name: FactorSize, Levels: sizes},
		{Name: FactorCutoff, Levels: []string{LevelNoCutoff, LevelWithCutoff}},
		{Name: FactorUpdate, Levels: []string{LevelFullUpdate, LevelPartUpdate}},
	}
}

// FullCases returns the full factorial design (7 x 3 x 2 x 2 = 84 cases
// at paper scale).
func (s Suite) FullCases() []expdesign.Case {
	return expdesign.FullFactorial(s.Factors([]string{"small", "medium", "large"}))
}

// FractionCases returns the paper's reduced 7 x 2^(3-1) design: medium
// and large sizes with the half fraction over {size, cutoff, update}.
func (s Suite) FractionCases() ([]expdesign.Case, error) {
	return expdesign.HalfFraction(
		s.Factors([]string{"medium", "large"}),
		[]string{FactorSize, FactorCutoff, FactorUpdate},
	)
}

// SpecFor translates a design case into a run specification.
func (s Suite) SpecFor(c expdesign.Case) (harness.RunSpec, error) {
	p, err := strconv.Atoi(c[FactorServers])
	if err != nil {
		return harness.RunSpec{}, fmt.Errorf("paper: bad servers level %q", c[FactorServers])
	}
	sys := s.Sizes[c[FactorSize]]
	if sys == nil {
		return harness.RunSpec{}, fmt.Errorf("paper: unknown size level %q", c[FactorSize])
	}
	cutoff := harness.NoCutoff
	if c[FactorCutoff] == LevelWithCutoff {
		cutoff = harness.EffectiveCutoff
	}
	update := 1
	if c[FactorUpdate] == LevelPartUpdate {
		update = 10
	}
	return paperSpec(s.Platform, sys, cutoff, update, p, s.Steps), nil
}

// MeasureAll runs a set of cases concurrently on the default pool and
// returns the measurements in case order, exactly as the sequential loop
// would.
func (s Suite) MeasureAll(cases []expdesign.Case) ([]core.Measurement, error) {
	specs := make([]harness.RunSpec, len(cases))
	for i, c := range cases {
		spec, err := s.SpecFor(c)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	outs, err := harness.RunMany(specs)
	if err != nil {
		return nil, err
	}
	ms := make([]core.Measurement, len(cases))
	for i, out := range outs {
		ms[i] = harness.MeasurementOf(specs[i], out)
	}
	return ms, nil
}

// Calibrate runs the given cases and fits the model (Figure 4's
// procedure).  With nil cases it uses the paper's reduced design.
func (s Suite) Calibrate(cases []expdesign.Case) (core.Report, error) {
	if cases == nil {
		var err error
		cases, err = s.FractionCases()
		if err != nil {
			return core.Report{}, err
		}
	}
	ms, err := s.MeasureAll(cases)
	if err != nil {
		return core.Report{}, err
	}
	return core.Calibrate(s.Platform.Name, ms)
}
