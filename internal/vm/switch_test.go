package vm_test

import (
	"testing"

	"opalperf/internal/fault"
	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/platform"
	"opalperf/internal/pvm"
	"opalperf/internal/vm"
)

// chaosResumes runs the benchmark's sim-chaos spec — a tiny complex on
// eight servers in accounting mode under a delay and straggler plan, so
// every phase runs fine-grained — for steps steps, and returns the
// coroutine switches the kernel made into the client and into each
// server.
func chaosResumes(t *testing.T, steps int) (client int, servers []int) {
	t.Helper()
	s := pvm.NewSimVM(platform.J90(), nil)
	s.SetFaults(fault.NewPlan(fault.Config{Seed: 7, DelayRate: 0.02, StragglerRate: 0.01}))
	var res *md.Result
	var err error
	s.SpawnRoot("opal-client", func(t pvm.Task) {
		res, err = md.RunParallel(t, molecule.TestComplex(2, 4, 9), md.Options{
			Cutoff: 10, UpdateEvery: 1, Accounting: true, InitTemperature: 300, Seed: 3,
		}, 8, steps)
	})
	if e := s.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.LoDMacroPhases != 0 {
		t.Fatalf("%d phases macro-replayed; the spec must run fine-grained", res.LoDMacroPhases)
	}
	for _, tid := range res.ServerTIDs {
		servers = append(servers, vm.Resumes(s.Kernel.Proc(tid)))
	}
	return vm.Resumes(s.Kernel.Proc(0)), servers
}

// TestFineGrainedPhaseSwitchesNoStack pins the reactor servers' point: the
// kernel switches into a server's coroutine once, for the start that hands
// the server to its reactor, and never again, and the client's switches do
// not grow with the run — a fine-grained accounting phase, with its
// requests, two barriers and replies, switches no stack at all.
func TestFineGrainedPhaseSwitchesNoStack(t *testing.T) {
	shortClient, _ := chaosResumes(t, 5)
	client, servers := chaosResumes(t, 40)
	for i, n := range servers {
		if n != 1 {
			t.Errorf("server %d: %d coroutine switches in 40 steps, want 1 (its start)", i, n)
		}
	}
	if client != shortClient {
		t.Errorf("client: %d coroutine switches in 40 steps, %d in 5; a phase must switch none", client, shortClient)
	}
	t.Logf("client switches: %d", client)
}
