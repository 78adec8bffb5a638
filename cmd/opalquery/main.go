// Command opalquery is the cross-run analytics CLI over a persistent run
// archive (the warehouse opal, scenario and opald write with -archive):
//
//	opalquery -archive DIR list [-spec H] [-tenant T]
//	opalquery -archive DIR show RUN-ID
//	opalquery -archive DIR percentiles [-spec H] [-split]
//	opalquery -archive DIR residuals [-spec H]
//	opalquery -archive DIR diff SPEC-A SPEC-B
//	opalquery -archive DIR watch [-spec H] [-factor F] [-window N] [-min-runs N]
//
// list and show read the index; percentiles digests wall-time cohorts per
// spec hash (nearest-rank, deterministic); residuals prints the oracle
// residual drift series; diff compares two specs' cohorts; watch judges
// the newest archived run of each spec against its rolling baseline and
// exits 2 when a regression is flagged — the CI tripwire.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"opalperf/internal/archive"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage: opalquery -archive DIR <command> [flags] [args]

commands:
  list         list archived run summaries (-spec, -tenant filters)
  show RUN     one run's summary in detail, plus its event count
  percentiles  per-spec wall-time cohort digests (-spec, -split chaos/fault-free)
  residuals    oracle residual drift series (-spec)
  diff A B     compare two spec hashes' cohorts
  watch        judge the newest run per spec against its rolling baseline;
               exit 2 when flagged (-spec, -factor, -window, -min-runs)
`

func run(args []string, stdout, stderr io.Writer) int {
	top := flag.NewFlagSet("opalquery", flag.ContinueOnError)
	top.SetOutput(stderr)
	dir := top.String("archive", "", "run archive directory")
	if err := top.Parse(args); err != nil {
		return 2
	}
	if *dir == "" || top.NArg() == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	a, err := archive.Open(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "opalquery: %v\n", err)
		return 1
	}
	defer a.Close()

	cmd, rest := top.Arg(0), top.Args()[1:]
	switch cmd {
	case "list":
		return cmdList(a, rest, stdout, stderr)
	case "show":
		return cmdShow(a, rest, stdout, stderr)
	case "percentiles":
		return cmdPercentiles(a, rest, stdout, stderr)
	case "residuals":
		return cmdResiduals(a, rest, stdout, stderr)
	case "diff":
		return cmdDiff(a, rest, stdout, stderr)
	case "watch":
		return cmdWatch(a, rest, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "opalquery: unknown command %q\n%s", cmd, usage)
		return 2
	}
}

func stamp(unix int64) string {
	return time.Unix(0, unix).UTC().Format(time.RFC3339)
}

func cmdList(a *archive.Archive, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := fs.String("spec", "", "filter on canonical spec hash")
	tenant := fs.String("tenant", "", "filter on submitting tenant")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sums := a.Summaries(archive.Query{Spec: *spec, Tenant: *tenant})
	w := tabwriter.NewWriter(stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "TIME\tRUN\tSPEC\tTENANT\tLABEL\tSERVERS\tSTEPS\tWALL")
	for _, s := range sums {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%d\t%d\t%.6f\n",
			stamp(s.Unix), s.Run, s.Spec, orDash(s.Tenant), orDash(s.Label),
			s.Servers, s.Steps, s.Wall)
	}
	w.Flush()
	fmt.Fprintf(stdout, "%d runs, %d specs\n", len(sums), len(a.Specs()))
	return 0
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func cmdShow(a *archive.Archive, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("show", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "opalquery: show needs exactly one run ID")
		return 2
	}
	runID := fs.Arg(0)
	sums := a.Summaries(archive.Query{Run: runID})
	if len(sums) == 0 {
		fmt.Fprintf(stderr, "opalquery: no summary for run %q\n", runID)
		return 1
	}
	s := sums[len(sums)-1]
	events := len(a.Select(archive.Query{Kind: archive.KindEvent, Run: runID}))
	fmt.Fprintf(stdout, "run:            %s\n", s.Run)
	fmt.Fprintf(stdout, "time:           %s\n", stamp(s.Unix))
	fmt.Fprintf(stdout, "spec:           %s\n", s.Spec)
	fmt.Fprintf(stdout, "tenant:         %s\n", orDash(s.Tenant))
	fmt.Fprintf(stdout, "label:          %s\n", orDash(s.Label))
	fmt.Fprintf(stdout, "platform:       %s\n", orDash(s.Platform))
	fmt.Fprintf(stdout, "system:         %s\n", orDash(s.System))
	fmt.Fprintf(stdout, "servers:        %d\n", s.Servers)
	fmt.Fprintf(stdout, "steps:          %d\n", s.Steps)
	fmt.Fprintf(stdout, "wall:           %.6f s\n", s.Wall)
	fmt.Fprintf(stdout, "energies hash:  %s\n", orDash(s.EnergiesHash))
	fmt.Fprintf(stdout, "final energy:   %.6f\n", s.FinalEnergy)
	fmt.Fprintf(stdout, "breakdown:      par=%.6f seq=%.6f comm=%.6f sync=%.6f idle=%.6f\n",
		s.Par, s.Seq, s.Comm, s.Sync, s.Idle)
	fmt.Fprintf(stdout, "recovery:       respawns=%d recoveries=%d faults=%d checkpoints=%d chaos=%v\n",
		s.Respawns, s.Recoveries, s.Faults, s.Checkpoints, s.Chaos)
	if s.OracleWindows > 0 || len(s.Residuals) > 0 {
		fmt.Fprintf(stdout, "oracle:         windows=%d anomalies=%d\n", s.OracleWindows, s.OracleAnomalies)
		for _, term := range sortedKeys(s.Residuals) {
			fmt.Fprintf(stdout, "residual %-6s %+.6f s\n", term+":", s.Residuals[term])
		}
	}
	if s.LoDMacroPhases > 0 || s.LoDFallbackPhases > 0 {
		fmt.Fprintf(stdout, "lod:            macro=%d fallback=%d\n", s.LoDMacroPhases, s.LoDFallbackPhases)
	}
	fmt.Fprintf(stdout, "events:         %d archived\n", events)
	return 0
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func cmdPercentiles(a *archive.Archive, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("percentiles", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := fs.String("spec", "", "digest only this spec hash")
	split := fs.Bool("split", false, "split each spec into fault-free and chaos cohorts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	specs := a.Specs()
	if *spec != "" {
		specs = []string{*spec}
	}
	w := tabwriter.NewWriter(stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "SPEC\tCOHORT\tN\tMIN\tP50\tP90\tP99\tMAX\tMEAN")
	rows := 0
	for _, sp := range specs {
		sums := a.Summaries(archive.Query{Spec: sp})
		if len(sums) == 0 {
			continue
		}
		if *split {
			faultFree, chaos := archive.SplitCohorts(sums)
			rows += cohortRow(w, sp, "fault-free", faultFree)
			rows += cohortRow(w, sp, "chaos", chaos)
		} else {
			rows += cohortRow(w, sp, "all", sums)
		}
	}
	w.Flush()
	if rows == 0 {
		fmt.Fprintln(stderr, "opalquery: no archived summaries match")
		return 1
	}
	return 0
}

func cohortRow(w io.Writer, spec, name string, sums []archive.RunSummary) int {
	if len(sums) == 0 {
		return 0
	}
	c := archive.CohortOf(archive.Walls(sums))
	fmt.Fprintf(w, "%s\t%s\t%d\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\n",
		spec, name, c.Count, c.Min, c.P50, c.P90, c.P99, c.Max, c.Mean)
	return 1
}

func cmdResiduals(a *archive.Archive, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("residuals", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := fs.String("spec", "", "filter on canonical spec hash")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drift := archive.ResidualDrift(a.Summaries(archive.Query{Spec: *spec}))
	if len(drift) == 0 {
		fmt.Fprintln(stderr, "opalquery: no archived runs carry oracle residuals")
		return 1
	}
	w := tabwriter.NewWriter(stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "TIME\tRUN\tTERM\tRESIDUAL")
	for _, p := range drift {
		for _, term := range sortedKeys(p.Residuals) {
			fmt.Fprintf(w, "%s\t%s\t%s\t%+.6f\n", stamp(p.Unix), p.Run, term, p.Residuals[term])
		}
	}
	w.Flush()
	return 0
}

func cmdDiff(a *archive.Archive, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "opalquery: diff needs exactly two spec hashes")
		return 2
	}
	specA, specB := fs.Arg(0), fs.Arg(1)
	sumsA := a.Summaries(archive.Query{Spec: specA})
	sumsB := a.Summaries(archive.Query{Spec: specB})
	if len(sumsA) == 0 || len(sumsB) == 0 {
		fmt.Fprintf(stderr, "opalquery: need summaries for both specs (%s: %d, %s: %d)\n",
			specA, len(sumsA), specB, len(sumsB))
		return 1
	}
	w := tabwriter.NewWriter(stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "SPEC\tN\tMIN\tP50\tP90\tP99\tMAX\tMEAN")
	ca := archive.CohortOf(archive.Walls(sumsA))
	cb := archive.CohortOf(archive.Walls(sumsB))
	for _, row := range []struct {
		spec string
		c    archive.Cohort
	}{{specA, ca}, {specB, cb}} {
		fmt.Fprintf(w, "%s\t%d\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\n",
			row.spec, row.c.Count, row.c.Min, row.c.P50, row.c.P90, row.c.P99, row.c.Max, row.c.Mean)
	}
	w.Flush()
	if ca.P50 > 0 {
		fmt.Fprintf(stdout, "p50 ratio (B/A): %.3f\n", cb.P50/ca.P50)
	}
	return 0
}

func cmdWatch(a *archive.Archive, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tol := archive.DefaultTolerance()
	spec := fs.String("spec", "", "judge only this spec hash")
	fs.Float64Var(&tol.WallFactor, "factor", tol.WallFactor, "flag a run slower than baseline median by this factor")
	fs.IntVar(&tol.Window, "window", tol.Window, "most-recent archived runs forming the baseline")
	fs.IntVar(&tol.MinRuns, "min-runs", tol.MinRuns, "fewest baseline runs before judging")
	noEnergies := fs.Bool("no-energies", false, "skip the energies-hash consensus check")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	tol.CheckEnergies = !*noEnergies
	specs := a.Specs()
	if *spec != "" {
		specs = []string{*spec}
	}
	flagged, judged := 0, 0
	for _, sp := range specs {
		sums := a.Summaries(archive.Query{Spec: sp})
		if len(sums) == 0 {
			continue
		}
		judged++
		newest := sums[len(sums)-1]
		rep := archive.Watch(sums[:len(sums)-1], newest, tol)
		fmt.Fprintf(stdout, "%s run=%s\n", rep.String(), newest.Run)
		if rep.Flagged {
			flagged++
		}
	}
	if judged == 0 {
		fmt.Fprintln(stderr, "opalquery: no archived summaries to judge")
		return 1
	}
	if flagged > 0 {
		fmt.Fprintf(stdout, "%d of %d specs flagged\n", flagged, judged)
		return 2
	}
	return 0
}
