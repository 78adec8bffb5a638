// Antennapedia: the paper's medium test case end to end — the complex of
// the Antennapedia homeodomain with DNA (1575 atoms in 2714 waters, 4289
// mass centers), simulated for 10 steps on the virtual Cray J90 for 1..7
// servers, reproducing one panel of Figure 1 including the even-server
// load-imbalance anomaly.
//
//	go run ./examples/antennapedia            (about a minute)
//	go run ./examples/antennapedia -scale 0.3 (quick)
package main

import (
	"flag"
	"fmt"
	"log"

	"opalperf/internal/harness"
	"opalperf/internal/paper"
	"opalperf/internal/platform"
)

func main() {
	scale := flag.Float64("scale", 1.0, "problem scale (1 = the paper's 4289 mass centers)")
	flag.Parse()

	sys, err := harness.Size("medium", *scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d mass centers, gamma %.3f, box %.1f A\n\n", sys.Name, sys.N, sys.Gamma(), sys.Box)

	panel, err := paper.MeasureBreakdownPanel(
		platform.J90(), sys, harness.EffectiveCutoff, 1, 7, 10,
		"Figure 1c) cut-off 10 A, full update — "+sys.Name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(panel.Chart())
	fmt.Println(panel.Table())

	fmt.Println("note the idle spikes at even server counts: the pseudo-random pair")
	fmt.Println("distribution parity-locks the heavier solute rows onto one half of the")
	fmt.Println("servers (the anomaly the paper's instrumentation uncovered).")
}
