package paper

import (
	"fmt"
	"strings"

	"opalperf/internal/expdesign"
	"opalperf/internal/harness"
)

// EffectsDesign is the 2^4 design used to quantify what drives Opal's
// execution time: servers at the extreme levels {1, 7}, problem size
// {medium, large}, cut-off {60 A, 10 A} and update {full, partial} —
// Jain's sign-table analysis over the measured response variables.
func (s Suite) EffectsDesign() ([]expdesign.Factor, []expdesign.Case) {
	factors := []expdesign.Factor{
		{Name: FactorServers, Levels: []string{"1", fmt.Sprint(s.MaxServers)}},
		{Name: FactorSize, Levels: []string{"medium", "large"}},
		{Name: FactorCutoff, Levels: []string{LevelNoCutoff, LevelWithCutoff}},
		{Name: FactorUpdate, Levels: []string{LevelFullUpdate, LevelPartUpdate}},
	}
	return factors, expdesign.FullFactorial(factors)
}

// MeasureEffects runs the 2^4 design and returns the effect analyses for
// the wall clock and each time component.
func (s Suite) MeasureEffects() (map[string]*expdesign.Analysis, error) {
	factors, cases := s.EffectsDesign()
	recs, err := expdesign.RunAllParallel(cases, func(c expdesign.Case) (map[string]float64, error) {
		spec, err := s.SpecFor(c)
		if err != nil {
			return nil, err
		}
		out, err := harness.Run(spec)
		if err != nil {
			return nil, err
		}
		b := out.Breakdown
		return map[string]float64{
			"wall": out.Wall,
			"par":  b.ParComp,
			"seq":  b.SeqComp,
			"comm": b.Comm,
			"sync": b.Sync,
			"idle": b.Idle,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*expdesign.Analysis)
	for _, resp := range expdesign.ResponseNames(recs) {
		an, err := expdesign.Analyze2k(factors, recs, resp)
		if err != nil {
			return nil, err
		}
		out[resp] = an
	}
	return out, nil
}

// EffectsReport renders the analyses in a stable order.
func EffectsReport(analyses map[string]*expdesign.Analysis) string {
	var sb strings.Builder
	for _, resp := range []string{"wall", "par", "comm", "seq", "sync", "idle"} {
		if an := analyses[resp]; an != nil {
			sb.WriteString(an.String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// effectsExtra runs the 2^4 effect design at up to five steps.
func effectsExtra(s Scale) (Output, error) {
	suite := suiteAt(s)
	suite.Steps = min(s.Steps, 5)
	analyses, err := suite.MeasureEffects()
	if err != nil {
		return Output{}, err
	}
	return Output{
		Files:   map[string]string{"extra_effects.txt": EffectsReport(analyses)},
		Metrics: []Metric{{Unit: "wall-mean-s", Value: analyses["wall"].Mean}},
	}, nil
}
