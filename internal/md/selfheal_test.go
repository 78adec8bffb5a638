package md

import (
	"testing"
	"time"

	"opalperf/internal/molecule"
	"opalperf/internal/platform"
	"opalperf/internal/pvm"
	"opalperf/internal/vm"
)

// TestSelfHealAdministrativeKillSim is the sim-fabric half of the chaos
// proof: an administrative kill schedule declares servers dead — one at
// an update boundary, one mid-interval — and the supervisor heals each
// by respawning a rank-inheriting replacement.  Because the replacement
// rebuilds the dead server's exact pair list from the last boundary
// coordinates, the healed run's physics is bit-identical to the
// fault-free run, not merely close.
func TestSelfHealAdministrativeKillSim(t *testing.T) {
	const nservers = 3
	const steps = 8
	sys := molecule.TestComplex(12, 24, 3)
	opts := Options{Minimize: true, UpdateEvery: 2, Accounting: false}

	base, _, baseTime := runParallelSim(t, platform.J90(), sys, opts, nservers, steps)

	hopts := opts
	hopts.SelfHeal = true
	hopts.Kills = func(step int) []int {
		switch step {
		case 2: // update boundary
			return []int{1}
		case 5: // mid pair-list interval
			return []int{0}
		}
		return nil
	}
	healed, rec, healedTime := runParallelSim(t, platform.J90(), sys, hopts, nservers, steps)

	if healed.Respawns != 2 {
		t.Fatalf("Respawns = %d, want 2 (one per injected kill)", healed.Respawns)
	}
	if healed.Recoveries != 0 {
		t.Fatalf("Recoveries = %d, want 0 (healing must not degrade)", healed.Recoveries)
	}
	if len(healed.LostTIDs) != 2 {
		t.Fatalf("LostTIDs = %v, want 2 entries", healed.LostTIDs)
	}
	if healed.RespawnSeconds <= 0 {
		t.Fatalf("respawn window not accounted: %v", healed.RespawnSeconds)
	}
	if healedTime <= baseTime {
		t.Fatalf("healing cost no virtual time: %v vs %v", healedTime, baseTime)
	}
	if len(healed.ServerTIDs) != nservers {
		t.Fatalf("fleet width = %d, want %d", len(healed.ServerTIDs), nservers)
	}
	for _, lost := range healed.LostTIDs {
		for _, tid := range healed.ServerTIDs {
			if tid == lost {
				t.Fatalf("dead server %d still listed in the fleet %v", lost, healed.ServerTIDs)
			}
		}
	}
	// The headline: bit-identical physics, including the pair-check and
	// active-pair counters, at every step.
	if len(healed.Steps) != len(base.Steps) {
		t.Fatalf("step counts differ: %d vs %d", len(healed.Steps), len(base.Steps))
	}
	for i := range base.Steps {
		if healed.Steps[i] != base.Steps[i] {
			t.Fatalf("step %d diverged:\n healed %+v\n base   %+v", i, healed.Steps[i], base.Steps[i])
		}
	}
	for i := range base.FinalPos {
		if base.FinalPos[i] != healed.FinalPos[i] {
			t.Fatalf("final position %d diverged", i)
		}
	}
	// The respawn window must be attributed to SegRecovery on the
	// client's recorded timeline.
	recovery := 0.0
	for _, id := range rec.Procs() {
		recovery += rec.Totals(id)[vm.SegRecovery]
	}
	if recovery <= 0 {
		t.Fatalf("no SegRecovery attributed for the respawn windows")
	}
}

// TestSelfHealRespawnTCP is the network-fabric half of the chaos proof,
// run under -race in CI: live servers are killed mid-run via their quit
// switches, the call timeout detects each death, and the supervisor
// respawns replacements — full width restored, active-pair coverage back
// to the p-server distribution, and no goroutine leaks.
func TestSelfHealRespawnTCP(t *testing.T) {
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
	client, err := pvm.ConnectTCP(daemon.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Quit switches for the original fleet (0..nservers-1) and for
	// respawned replacements, which the engine keys nservers + k.
	quits := make([]chan struct{}, nservers+4)
	for i := range quits {
		quits[i] = make(chan struct{})
	}
	kill := func(i int) {
		close(quits[i])
		time.Sleep(25 * time.Millisecond)
	}
	copts := opts
	copts.FaultTolerant = true
	copts.SelfHeal = true
	copts.CallTimeout = 250 * time.Millisecond
	copts.CallRetries = 1
	copts.ServerQuit = func(i int) <-chan struct{} { return quits[i] }
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
		t.Fatal("self-heal run wedged: a dead server turned into a hang")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if res.Respawns != 2 {
		t.Fatalf("Respawns = %d, want 2", res.Respawns)
	}
	if res.Recoveries != 0 {
		t.Fatalf("Recoveries = %d, want 0 (the budget was unlimited)", res.Recoveries)
	}
	if len(res.LostTIDs) != 2 {
		t.Fatalf("LostTIDs = %v, want 2 entries", res.LostTIDs)
	}
	if res.RespawnSeconds <= 0 {
		t.Fatalf("respawn window not accounted: %v", res.RespawnSeconds)
	}
	if len(res.ServerTIDs) != nservers {
		t.Fatalf("fleet width = %d, want %d", len(res.ServerTIDs), nservers)
	}
	for _, lost := range res.LostTIDs {
		for _, tid := range res.ServerTIDs {
			if tid == lost {
				t.Fatalf("dead server %d still in the fleet %v", lost, res.ServerTIDs)
			}
		}
	}
	if len(res.Steps) != steps {
		t.Fatalf("got %d steps, want %d", len(res.Steps), steps)
	}
	for i := range res.Steps {
		// Rank preservation keeps both the pair distribution and the
		// partial-sum grouping of the reference run: active pairs and
		// energies match exactly, not just within summation order.
		if res.Steps[i].ActivePairs != ref.Steps[i].ActivePairs {
			t.Fatalf("step %d: active pairs %d != %d — healing lost pair coverage",
				i, res.Steps[i].ActivePairs, ref.Steps[i].ActivePairs)
		}
		if res.Steps[i].ETotal != ref.Steps[i].ETotal {
			t.Fatalf("step %d: energy %v != %v — healing changed the physics",
				i, res.Steps[i].ETotal, ref.Steps[i].ETotal)
		}
	}

	// Every server goroutine must have exited: two killed, the survivor
	// and both replacements through the shutdown handshake.  The client
	// session hosts them all (local-fallback spawns), so Wait returning
	// proves no leak.
	waitDone := make(chan struct{})
	go func() { client.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(10 * time.Second):
		t.Fatal("server goroutines leaked after healing")
	}
}

// Once the respawn budget is exhausted, further deaths fall down the
// recovery ladder to PR 2's graceful degradation.
func TestSelfHealBudgetFallsBackToDegrade(t *testing.T) {
	const nservers = 3
	const steps = 10
	sys := molecule.TestComplex(12, 24, 3)
	opts := Options{Minimize: true, UpdateEvery: 1}

	ref, _, _ := runParallelSim(t, platform.J90(), sys, opts, nservers, steps)

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

	quits := make([]chan struct{}, nservers+2)
	for i := range quits {
		quits[i] = make(chan struct{})
	}
	copts := opts
	copts.FaultTolerant = true
	copts.SelfHeal = true
	copts.MaxRespawns = 1
	copts.CallTimeout = 250 * time.Millisecond
	copts.CallRetries = 1
	copts.ServerQuit = func(i int) <-chan struct{} { return quits[i] }
	copts.AfterStep = func(step int, _ StepInfo) {
		switch step {
		case 2:
			close(quits[0])
			time.Sleep(25 * time.Millisecond)
		case 6:
			close(quits[1])
			time.Sleep(25 * time.Millisecond)
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
		t.Fatal("budgeted self-heal run wedged")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if res.Respawns != 1 {
		t.Fatalf("Respawns = %d, want 1 (the budget)", res.Respawns)
	}
	if res.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1 (the over-budget death degrades)", res.Recoveries)
	}
	if len(res.LostTIDs) != 2 {
		t.Fatalf("LostTIDs = %v, want 2 entries", res.LostTIDs)
	}
	if len(res.Steps) != steps {
		t.Fatalf("got %d steps, want %d", len(res.Steps), steps)
	}
	// Degradation regroups partial sums, so compare within summation
	// order rather than bit-for-bit.
	for i := range res.Steps {
		if d := relDiff(res.Steps[i].ETotal, ref.Steps[i].ETotal); d > 1e-9 {
			t.Fatalf("step %d: energy diverged beyond summation order: %v vs %v",
				i, res.Steps[i].ETotal, ref.Steps[i].ETotal)
		}
	}
}

func TestSelfHealValidation(t *testing.T) {
	sys := molecule.TestComplex(5, 5, 12)
	check := func(name string, opts Options) {
		t.Helper()
		if rejectedOnSim(t, sys, opts) == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	check("SelfHeal+Accounting", Options{SelfHeal: true, Accounting: true})
	check("Kills without SelfHeal", Options{Kills: func(int) []int { return nil }})
}
