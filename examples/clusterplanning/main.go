// Clusterplanning: the paper's Section 4 workflow — decide which machine
// to buy for Opal without porting it.  The model is calibrated once on
// the reference platform (the virtual Cray J90), then combined with the
// published key data of the T3E-900 and the three Cluster-of-PCs flavours
// to predict execution times and speed-ups, leading to the paper's
// conclusion: a well designed cluster of PCs rivals or beats the big
// irons for this code.
//
//	go run ./examples/clusterplanning
package main

import (
	"fmt"
	"log"

	"opalperf/internal/core"
	"opalperf/internal/harness"
	"opalperf/internal/molecule"
	"opalperf/internal/paper"
	"opalperf/internal/platform"
)

func main() {
	// Step 1: calibrate the model on the reference platform with a
	// scaled-down factorial design (a few seconds).
	fmt.Println("step 1: calibrating the analytic model on the virtual Cray J90...")
	suite := paper.NewSuite(harness.Sizes(0.15))
	suite.Steps = 5
	rep, err := suite.Calibrate(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  fit quality: MAPE %.1f%%, R2 %.4f over %d cases\n",
		100*rep.MAPE, rep.R2, len(rep.Cases))
	fmt.Printf("  fitted: a1 %.1f MB/s, b1 %.1f ms, a3 %.0f ns/pair, b5 %.1f ms\n\n",
		rep.Machine.A1/1e6, rep.Machine.B1*1e3, rep.Machine.A3*1e9, rep.Machine.B5*1e3)

	// Step 2: predict the paper's medium complex on every platform from
	// its key technical data (no port needed).
	sys := molecule.Antennapedia()
	fmt.Printf("step 2: predicting %s (%d mass centers) across platforms\n\n", sys.Name, sys.N)
	for _, cfg := range []struct {
		cutoff float64
		label  string
	}{
		{harness.NoCutoff, "no cut-off (accurate, compute bound)"},
		{harness.EffectiveCutoff, "10 A cut-off (approximate, communication bound)"},
	} {
		fmt.Printf("--- %s ---\n", cfg.label)
		app7 := core.AppFor(sys, cfg.cutoff, 1, 7, 10)
		app1 := core.AppFor(sys, cfg.cutoff, 1, 1, 10)
		for _, pl := range platform.All() {
			mach := core.MachineFor(pl, sys.Gamma())
			t1, t7 := mach.Total(app1), mach.Total(app7)
			fmt.Printf("  %-22s t(1)=%7.2f s  t(7)=%7.2f s  speed-up %.2f\n",
				pl.Name, t1, t7, t1/t7)
		}
		fmt.Println()
	}

	fmt.Println("conclusion: the fast and SMP Clusters of PCs match or beat the J90 and")
	fmt.Println("end ahead of the T3E-900 in absolute time for this code, while the slow")
	fmt.Println("(Ethernet) cluster and the J90 stop scaling beyond three servers once")
	fmt.Println("the cut-off makes Opal communication bound.")
}
