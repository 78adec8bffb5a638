// Command figures regenerates the paper's evaluation into an output
// directory: every entry of internal/paper's table that the -only keys
// select writes the out/ files it declares.  That is the measured
// breakdowns of Figures 1-2, the parameter space of Figure 3, the
// calibration of Figure 4, the cross-platform predictions of Figures 5-6,
// Tables 1-2 and the Section 2.6 memory and space tables, plus the
// extensions (cost ranking, Section 4.1's zero-copy MPI what-if, model
// validation, J90 cluster, effect analysis) and the ablations.  It is
// the one front end of the paper's pipeline: micro-benchmarks,
// calibration and prediction.
//
// Examples:
//
//	figures                      # everything at scale 0.25 into out/
//	figures -scale 1 -out paper  # paper-scale problem sizes (minutes)
//	figures -only fig5,table1
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"opalperf/internal/harness"
	"opalperf/internal/paper"
	"opalperf/internal/parallel"
)

func main() {
	keys := paper.Keys()
	var (
		outDir = flag.String("out", "out", "output directory")
		scale  = flag.Float64("scale", 0.25, "problem size scale for the measured figures (1 = paper sizes)")
		steps  = flag.Int("steps", 10, "simulation steps")
		maxP   = flag.Int("maxp", 7, "maximum number of servers")
		only   = flag.String("only", "", "comma-separated subset of "+strings.Join(keys, ", "))
		jobs   = flag.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS); outputs are identical for any value")
	)
	flag.Parse()
	parallel.SetWorkers(*jobs)

	if *maxP < 1 || *steps < 1 {
		usage("-maxp %d -steps %d: need at least one server and one step", *maxP, *steps)
	}
	selected := map[string]bool{}
	for _, k := range strings.Split(*only, ",") {
		if k = strings.TrimSpace(k); k != "" {
			if !slices.Contains(keys, k) {
				usage("unknown -only key %q (valid: %s)", k, strings.Join(keys, ", "))
			}
			selected[k] = true
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	s := paper.Scale{Sizes: harness.Sizes(*scale), Steps: *steps, MaxP: *maxP}
	for _, e := range paper.Evals {
		if len(selected) > 0 && !selected[e.Key] {
			continue
		}
		fmt.Printf("figures: running %s (%s)...\n", e.Name, e.Key)
		out, err := e.Run(s)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.Name, err))
		}
		for _, name := range e.Files {
			path := filepath.Join(*outDir, name)
			if err := os.WriteFile(path, []byte(out.Files[name]), 0o644); err != nil {
				fatal(err)
			}
			fmt.Println("figures: wrote", path)
		}
	}
	fmt.Println("figures: done, see", *outDir)
}

// usage reports a bad flag value and exits 2, writing nothing.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "figures: "+format+"\n", args...)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
