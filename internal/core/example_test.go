package core_test

import (
	"fmt"

	"opalperf/internal/core"
	"opalperf/internal/molecule"
	"opalperf/internal/platform"
)

// Predict the paper's medium complex on the fast Cluster of PCs without
// porting anything: derive the machine parameters from its key data and
// evaluate the model.
func Example() {
	sys := molecule.Antennapedia()
	mach := core.MachineFor(platform.FastCoPs(), sys.Gamma())
	app := core.AppFor(sys, 10 /* A cutoff */, 1 /* full update */, 7 /* servers */, 10 /* steps */)

	b := mach.Predict(app)
	fmt.Printf("total %.1fs (par %.1f, comm %.2f)\n", b.Total(), b.Par, b.Comm)
	fmt.Printf("speed-up at 7 servers: %.1f\n", mach.Speedup(app, 7)[6])
	// Output:
	// total 2.5s (par 1.7, comm 0.72)
	// speed-up at 7 servers: 4.9
}

// The optimal server count reproduces the paper's observation that the
// J90 stops benefiting beyond three servers once the cut-off makes Opal
// communication bound.
func ExampleMachine_OptimalServers() {
	sys := molecule.Antennapedia()
	mach := core.MachineFor(platform.J90(), sys.Gamma())
	app := core.AppFor(sys, 10, 1, 1, 10)
	p, _ := mach.OptimalServers(app, 7)
	fmt.Println("useful servers on the J90:", p)
	// Output:
	// useful servers on the J90: 3
}

// Calibration fits the six platform parameters from measured breakdowns.
func ExampleCalibrate() {
	truth := core.MachineFor(platform.J90(), 0.63)
	sys := molecule.SmallComplex()
	var ms []core.Measurement
	for _, p := range []int{1, 3, 5, 7} {
		for _, up := range []int{1, 10} {
			app := core.AppFor(sys, 60, up, p, 10)
			ms = append(ms, core.Measurement{
				App:  app,
				Par:  truth.ParCompTime(app),
				Seq:  truth.SeqCompTime(app),
				Comm: truth.CommTime(app),
				Sync: truth.SyncTime(app),
			})
		}
	}
	rep, err := core.Calibrate("example", ms)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("a1 = %.1f MB/s, b1 = %.0f ms, MAPE %.2f%%\n",
		rep.Machine.A1/1e6, rep.Machine.B1*1e3, 100*rep.MAPE)
	// Output:
	// a1 = 3.0 MB/s, b1 = 10 ms, MAPE 0.00%
}
