// Command scenario validates and runs declarative chaos scenarios
// (internal/scenario): YAML files describing a fleet, timed events —
// server kills, fault-injection windows, checkpoints, a client restart —
// and assertions checked after the run (bit-identical energies against a
// fault-free reference, oracle anomalies, heal budgets, LoD phase
// counts, makespan tolerances).
//
// Examples:
//
//	scenario list scenarios/
//	scenario validate scenarios/
//	scenario run scenarios/cascade-failure.yaml
//	scenario run -seeds 25 -jobs 8 scenarios/        # sweep the corpus
//	scenario run -journal run.jsonl -deterministic scenarios/kill-sweep.yaml
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"opalperf/internal/archive"
	"opalperf/internal/harness"
	"opalperf/internal/scenario"
	"opalperf/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage: scenario <command> [flags] <file-or-dir ...>

commands:
  list      show each scenario's shape, moving parts and assertions
  validate  parse and validate scenario files, reporting the first error
  run       execute scenarios and judge their assertions

run flags:
  -seeds N          sweep each scenario over N fault/kill seeds (default 1)
  -jobs N           concurrent simulations per sweep (default GOMAXPROCS)
  -journal FILE     append the JSONL run journal to FILE
  -archive DIR      archive one run summary per sweep into the persistent
                    warehouse (query with opalquery)
  -deterministic    pin the journal clock and run ID so identical runs
                    render byte-identical journals (use with -jobs 1)
  -v                print every check, not only failures
`

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "list":
		err = cmdList(stdout, rest)
	case "validate":
		err = cmdValidate(stdout, rest)
	case "run":
		err = cmdRun(stdout, rest)
	case "help", "-h", "--help":
		fmt.Fprint(stdout, usage)
		return 0
	default:
		fmt.Fprintf(stderr, "scenario: unknown command %q\n\n%s", cmd, usage)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "scenario: %v\n", err)
		return 1
	}
	return 0
}

// gather loads scenarios from every argument: directories contribute all
// their *.yaml/*.yml files, other paths are loaded as single files.
func gather(paths []string) ([]*scenario.Spec, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("no scenario files or directories given")
	}
	var specs []*scenario.Spec
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if info.IsDir() {
			dir, err := scenario.LoadDir(p)
			if err != nil {
				return nil, err
			}
			if len(dir) == 0 {
				return nil, fmt.Errorf("%s: no scenario files", p)
			}
			specs = append(specs, dir...)
			continue
		}
		spec, err := scenario.Load(p)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

func cmdList(stdout io.Writer, args []string) error {
	specs, err := gather(args)
	if err != nil {
		return err
	}
	rows := [][]string{{"SCENARIO", "STEPS", "FLEET", "MOVING PARTS", "ASSERTS"}}
	for _, s := range specs {
		rows = append(rows, []string{
			s.Name,
			fmt.Sprintf("%d", s.Fleet.Steps),
			fmt.Sprintf("%dx %s/%s", s.Fleet.Servers, s.Fleet.Platform, s.Fleet.Size),
			s.Summary(),
			strings.Join(s.AssertNames(), ","),
		})
	}
	writeColumns(stdout, rows)
	fmt.Fprintf(stdout, "%d scenario(s)\n", len(specs))
	return nil
}

func cmdValidate(stdout io.Writer, args []string) error {
	specs, err := gather(args)
	if err != nil {
		return err
	}
	for _, s := range specs {
		fmt.Fprintf(stdout, "ok\t%s\t%s\n", s.File, s.Name)
	}
	fmt.Fprintf(stdout, "%d scenario(s) valid\n", len(specs))
	return nil
}

func cmdRun(stdout io.Writer, args []string) error {
	fs := flag.NewFlagSet("scenario run", flag.ContinueOnError)
	seeds := fs.Int("seeds", 1, "sweep each scenario over N fault/kill seeds")
	jobs := fs.Int("jobs", 0, "concurrent simulations per sweep (0 = GOMAXPROCS)")
	journal := fs.String("journal", "", "append the JSONL run journal to this file")
	archiveDir := fs.String("archive", "", "archive one run summary per sweep into this warehouse directory")
	deterministic := fs.Bool("deterministic", false, "pin the journal clock and run ID for byte-identical replays")
	verbose := fs.Bool("v", false, "print every check, not only failures")
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs, err := gather(fs.Args())
	if err != nil {
		return err
	}
	var arch *archive.Archive
	if *archiveDir != "" {
		if arch, err = archive.Open(*archiveDir); err != nil {
			return err
		}
		defer arch.Close()
	}
	if *journal != "" || *deterministic {
		telemetry.SetEnabled(true)
		defer telemetry.SetEnabled(false)
		// The archive takes one summary per sweep (below), not the
		// journal's events.
		rec, err := harness.StartRecording(*journal, 256, 0, "")
		if err != nil {
			return err
		}
		defer rec.Close()
		if *deterministic {
			telemetry.SetRun("scenario-corpus")
			rec.Journal.SetClock(fakeClock())
		} else {
			telemetry.SetRun(telemetry.NewRunID())
		}
	}
	failed := 0
	for _, spec := range specs {
		reports := scenario.Sweep(spec, *seeds, *jobs)
		if arch != nil {
			for _, r := range reports {
				if r.Err != nil {
					continue // no run, nothing to warehouse
				}
				if err := arch.AppendSummary(scenario.Summarize(spec, r)); err != nil {
					return fmt.Errorf("archiving %s sweep %d: %w", spec.Name, r.Sweep, err)
				}
			}
		}
		failed += summarize(stdout, spec, reports, *verbose)
	}
	total := len(specs) * *seeds
	if failed > 0 {
		return fmt.Errorf("%d of %d scenario run(s) failed", failed, total)
	}
	fmt.Fprintf(stdout, "PASS: %d scenario(s) x %d seed(s)\n", len(specs), *seeds)
	return nil
}

// summarize prints one line per scenario (or per failing seed) and
// returns the number of failed seeds.
func summarize(w io.Writer, spec *scenario.Spec, reports []scenario.Report, verbose bool) int {
	failed := 0
	respawns, checkpoints, anomalies := 0, 0, 0
	for _, r := range reports {
		respawns += r.Respawns
		checkpoints += r.Checkpoints
		anomalies += r.Anomalies
		if !r.Passed() {
			failed++
		}
	}
	status := "ok  "
	if failed > 0 {
		status = "FAIL"
	}
	fmt.Fprintf(w, "%s %-28s seeds=%d checks=%d respawns=%d checkpoints=%d anomalies=%d\n",
		status, spec.Name, len(reports), len(spec.AssertNames()), respawns, checkpoints, anomalies)
	for _, r := range reports {
		if r.Err != nil {
			fmt.Fprintf(w, "     sweep %d: error: %v\n", r.Sweep, r.Err)
			continue
		}
		for _, c := range r.Checks {
			if !c.OK {
				fmt.Fprintf(w, "     sweep %d: %s: %s\n", r.Sweep, c.Name, c.Detail)
			} else if verbose {
				fmt.Fprintf(w, "     sweep %d: %s ok: %s\n", r.Sweep, c.Name, c.Detail)
			}
		}
	}
	return failed
}

// writeColumns renders rows with two-space column padding — stable,
// golden-testable output.
func writeColumns(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			if i == len(row)-1 {
				b.WriteString(cell)
				break
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)+2))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

// fakeClock is a deterministic wall-clock: the epoch advanced one
// millisecond per event.  With a fixed run ID it makes the journal of a
// deterministic run byte-identical across replays.
func fakeClock() func() time.Time {
	t := time.Unix(0, 0).UTC()
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

// sortedNames is used by tests to assert corpus coverage.
func sortedNames(specs []*scenario.Spec) []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}
