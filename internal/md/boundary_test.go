package md

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"opalperf/internal/molecule"
	"opalperf/internal/platform"
	"opalperf/internal/pvm"
)

// frameLog is a trajectory sink that logs each XYZ frame's step: one
// Frame is one flushed write whose second line is "step N E=...".
type frameLog struct{ log *[]string }

func (f frameLog) Write(p []byte) (int, error) {
	lines := bytes.SplitN(p, []byte("\n"), 3)
	var step int
	if len(lines) < 2 {
		return 0, fmt.Errorf("frame write %q carries no comment line", p)
	}
	if _, err := fmt.Sscanf(string(lines[1]), "step %d", &step); err != nil {
		return 0, fmt.Errorf("frame comment %q: %v", lines[1], err)
	}
	*f.log = append(*f.log, fmt.Sprintf("frame %d", step))
	return len(p), nil
}

// TestEnginesShareBoundaries arms every boundary hook on both engines and
// requires the same calls at the same boundaries from each: AfterInit once
// before the first step, then per completed step the trajectory frame, the
// checkpoint due there, AfterStep and the Cancel poll, until Cancel stops
// the run at the boundary it names.
func TestEnginesShareBoundaries(t *testing.T) {
	sys := molecule.TestComplex(10, 15, 31)
	const steps, start, stopAt = 9, 10, 6
	// CheckpointAt asks at absolute step 13; the capture waits for the
	// pair-list update boundary at 14.
	var want []string
	want = append(want, "init")
	for s := 0; s < stopAt; s++ {
		want = append(want, fmt.Sprintf("frame %d", s))
		if start+s+1 == 14 {
			want = append(want, "checkpoint 14")
		}
		want = append(want, fmt.Sprintf("after %d", s), fmt.Sprintf("cancel %d", start+s+1))
	}
	for _, servers := range []int{0, 1, 3} {
		t.Run(fmt.Sprintf("servers=%d", servers), func(t *testing.T) {
			var log []string
			opts := Options{Seed: 4, UpdateEvery: 2, StartStep: start, Minimize: true}
			opts.AfterInit = func() { log = append(log, "init") }
			opts.Trajectory = NewTrajectoryWriter(frameLog{&log}, sys, 1)
			opts.CheckpointAt = func(step int) bool { return step == 13 }
			opts.CheckpointSink = func(cp *Checkpoint) error {
				log = append(log, fmt.Sprintf("checkpoint %d", cp.Step))
				return nil
			}
			opts.AfterStep = func(step int, _ StepInfo) { log = append(log, fmt.Sprintf("after %d", step)) }
			polls := 0
			opts.Cancel = func() error {
				polls++
				log = append(log, fmt.Sprintf("cancel %d", start+polls))
				if polls == stopAt {
					return errStopNow
				}
				return nil
			}
			s := pvm.NewSimVM(platform.J90(), nil)
			var err error
			s.SpawnRoot("opal-client", func(task pvm.Task) {
				if servers == 0 {
					_, err = RunSerial(task, sys, opts, steps)
				} else {
					_, err = RunParallel(task, sys, opts, servers, steps)
				}
			})
			if e := s.Run(); e != nil {
				t.Fatal(e)
			}
			var ce *CancelError
			if !errors.As(err, &ce) || ce.Step != start+stopAt {
				t.Fatalf("run error = %v, want a cancel at step %d", err, start+stopAt)
			}
			if !reflect.DeepEqual(log, want) {
				t.Fatalf("boundary calls:\n got %q\nwant %q", log, want)
			}
		})
	}
}
