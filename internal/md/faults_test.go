package md

import (
	"testing"
	"time"

	"opalperf/internal/molecule"
	"opalperf/internal/platform"
	"opalperf/internal/pvm"
	"opalperf/internal/sciddle"
)

// rejectedOnSim runs the parallel engine as the root task of a simulated
// session and returns the error it refused the options with, nil if it ran.
func rejectedOnSim(t *testing.T, sys *molecule.System, opts Options) error {
	t.Helper()
	s := pvm.NewSimVM(platform.J90(), nil)
	var err error
	s.SpawnRoot("opal-client", func(task pvm.Task) {
		_, err = RunParallel(task, sys, opts, 2, 1)
	})
	if runErr := s.Run(); runErr != nil {
		t.Fatal(runErr)
	}
	return err
}

// On the simulated fabric replies cannot be lost, so the fault-tolerance
// options must be completely inert: bit-identical physics, no recoveries.
func TestFaultToleranceInertOnSimFabric(t *testing.T) {
	sys := molecule.TestComplex(12, 24, 3)
	opts := Options{Minimize: true, UpdateEvery: 1}
	base, _, baseTime := runParallelSim(t, platform.J90(), sys, opts, 3, 5)

	fopts := opts
	fopts.FaultTolerant = true
	fopts.CallRetries = 2
	ft, _, ftTime := runParallelSim(t, platform.J90(), sys, fopts, 3, 5)

	if ft.Recoveries != 0 || len(ft.LostTIDs) != 0 || ft.RecoverySeconds != 0 {
		t.Fatalf("recoveries on a lossless fabric: %+v", ft.Recoveries)
	}
	if baseTime != ftTime {
		t.Fatalf("fault-tolerance options changed the virtual makespan: %v vs %v", baseTime, ftTime)
	}
	if len(base.Steps) != len(ft.Steps) {
		t.Fatalf("step counts differ: %d vs %d", len(base.Steps), len(ft.Steps))
	}
	for i := range base.Steps {
		if base.Steps[i] != ft.Steps[i] {
			t.Fatalf("step %d diverged:\n%+v\n%+v", i, base.Steps[i], ft.Steps[i])
		}
	}
	for i := range base.FinalPos {
		if base.FinalPos[i] != ft.FinalPos[i] {
			t.Fatalf("final position %d diverged", i)
		}
	}
}

func TestFaultToleranceRejectsAccounting(t *testing.T) {
	sys := molecule.TestComplex(5, 5, 12)
	if rejectedOnSim(t, sys, Options{FaultTolerant: true, Accounting: true}) == nil {
		t.Fatal("FaultTolerant+Accounting accepted")
	}
}

// The headline chaos test: parallel Opal over the real network fabric,
// two of three live servers killed mid-run at deterministic steps.  The
// client must detect each death within its call timeout, redistribute the
// dead server's pair rows to the survivors and finish with the same
// energies as a fault-free run (up to floating-point summation order —
// the redistribution changes only how partial sums are grouped).
func TestParallelSurvivesServerDeathsTCP(t *testing.T) {
	const nservers = 3
	const steps = 12
	sys := molecule.TestComplex(12, 24, 3)
	opts := Options{Minimize: true, UpdateEvery: 1}

	ref, _, _ := runParallelSim(t, platform.J90(), sys, opts, nservers, steps)

	daemon, err := pvm.NewDaemon("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Close()

	quits := make([]chan struct{}, nservers)
	for i := range quits {
		quits[i] = make(chan struct{})
	}
	host, err := pvm.ConnectTCP(daemon.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	host.RegisterSpawn("opal-server", func(st pvm.Task) {
		sciddle.Serve(st, newOpalService(), sciddle.ServeOptions{
			Quit:         quits[st.Instance()],
			PollInterval: 2 * time.Millisecond,
		})
	})

	client, err := pvm.ConnectTCP(daemon.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	kill := func(i int) {
		close(quits[i])
		// Wait out several poll intervals so the victim is certainly gone
		// before the next phase addresses it.
		time.Sleep(25 * time.Millisecond)
	}
	copts := opts
	copts.FaultTolerant = true
	copts.CallTimeout = 250 * time.Millisecond
	copts.CallRetries = 1
	copts.AfterStep = func(step int, _ StepInfo) {
		switch step {
		case 2:
			kill(1)
		case 6:
			kill(2)
		}
	}

	var res *Result
	var runErr error
	done := make(chan struct{})
	client.SpawnRoot("opal-client", func(task pvm.Task) {
		defer close(done)
		res, runErr = RunParallel(task, sys, copts, nservers, steps)
	})
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("chaos run wedged: a dead server turned into a hang")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if res.Recoveries != 2 {
		t.Fatalf("recoveries = %d, want 2", res.Recoveries)
	}
	if len(res.LostTIDs) != 2 {
		t.Fatalf("lost tids = %v, want 2 entries", res.LostTIDs)
	}
	if res.RecoverySeconds <= 0 {
		t.Fatalf("recovery window not attributed: %v", res.RecoverySeconds)
	}
	if len(res.Steps) != steps {
		t.Fatalf("got %d steps, want %d", len(res.Steps), steps)
	}
	for i := range res.Steps {
		if res.Steps[i].ActivePairs != ref.Steps[i].ActivePairs {
			t.Fatalf("step %d: active pairs %d != %d — redistribution lost pair coverage",
				i, res.Steps[i].ActivePairs, ref.Steps[i].ActivePairs)
		}
		if d := relDiff(res.Steps[i].ETotal, ref.Steps[i].ETotal); d > 1e-9 {
			t.Fatalf("step %d: energy diverged beyond summation order: %v vs %v (rel %g)",
				i, res.Steps[i].ETotal, ref.Steps[i].ETotal, d)
		}
	}

	// Every server loop must have exited: two by quit, one by the
	// shutdown handshake.  A leak here means a kill turned into an
	// orphaned goroutine.
	hostDone := make(chan struct{})
	go func() { host.Wait(); close(hostDone) }()
	select {
	case <-hostDone:
	case <-time.After(10 * time.Second):
		t.Fatal("server goroutines leaked on the host session")
	}
}

// The md.Options.ServerQuit plumbing: with no remote spawn host the
// servers run in the client's own TCP session (local fallback), where the
// option's quit switches reach them directly.
func TestServerQuitOptionTCP(t *testing.T) {
	const nservers = 2
	const steps = 8
	sys := molecule.TestComplex(10, 20, 5)

	daemon, err := pvm.NewDaemon("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Close()
	client, err := pvm.ConnectTCP(daemon.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	quits := make([]chan struct{}, nservers)
	for i := range quits {
		quits[i] = make(chan struct{})
	}
	opts := Options{
		Minimize:      true,
		UpdateEvery:   1,
		FaultTolerant: true,
		CallTimeout:   250 * time.Millisecond,
		ServerQuit:    func(i int) <-chan struct{} { return quits[i] },
		AfterStep: func(step int, _ StepInfo) {
			if step == 1 {
				close(quits[0])
				time.Sleep(25 * time.Millisecond)
			}
		},
	}
	var res *Result
	var runErr error
	done := make(chan struct{})
	client.SpawnRoot("opal-client", func(task pvm.Task) {
		defer close(done)
		res, runErr = RunParallel(task, sys, opts, nservers, steps)
	})
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("run wedged after server quit")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if res.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", res.Recoveries)
	}
	if len(res.Steps) != steps {
		t.Fatalf("got %d steps, want %d", len(res.Steps), steps)
	}
}
