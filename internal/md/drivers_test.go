package md

import (
	"testing"

	"opalperf/internal/fault"
	"opalperf/internal/molecule"
	"opalperf/internal/pvm"
	"opalperf/internal/sciddle"
)

// blockingTask hides the simulated task's type, as any wrapper does, and
// with it the reactor capability and run-ahead: pvm.Drive serves it by
// blocking calls, the requests received through Recv.
type blockingTask struct{ pvm.Task }

// blockedRecvs counts the requests blocking servers received.
var blockedRecvs int

func (b blockingTask) Recv(src, tag int) (*pvm.Buffer, int, int) {
	blockedRecvs++
	return b.Task.Recv(src, tag)
}

func blockingServe(t pvm.Task, svc *sciddle.Service, opt sciddle.ServeOptions) {
	sciddle.Serve(blockingTask{t}, svc, opt)
}

// observeBlocking is observe with every server, replacements included,
// on the blocking driver.
func observeBlocking(t *testing.T, sys *molecule.System, opts Options, faults *fault.Config, nservers, steps int) observables {
	t.Helper()
	serve = blockingServe
	defer func() { serve = sciddle.Serve }()
	o, _ := observe(t, 2, sys, opts, faults, nservers, steps)
	return o
}

// TestServeDriversBitIdentical is the reactor servers' correctness
// property: over 40 seeds × {inert, delay + straggler, delay + straggler +
// compute-crash} fault plans × accounting and overlapped mode, a run whose
// servers the kernel steps as reactors reproduces the run whose servers
// block in coroutines, on the same simulated fabric, in every Stats
// counter, window total, Breakdown term, hpm counter, comm-matrix cell,
// fault count and energy, bit for bit.  A self-heal kill schedule, whose
// replacements are spawned mid-run, rides on every fourth seed.
func TestServeDriversBitIdentical(t *testing.T) {
	plans := []struct {
		name string
		cfg  func(seed uint64) *fault.Config
	}{
		{"inert", func(seed uint64) *fault.Config { return &fault.Config{Seed: seed} }},
		{"delay+straggler", func(seed uint64) *fault.Config {
			return &fault.Config{Seed: seed, DelayRate: 0.05, StragglerRate: 0.05}
		}},
		{"delay+straggler+crash", func(seed uint64) *fault.Config {
			return &fault.Config{Seed: seed, DelayRate: 0.05, StragglerRate: 0.05, CrashRate: 0.05}
		}},
	}
	blockedRecvs = 0
	kills := 0
	for seed := 0; seed < 40; seed++ {
		sys := molecule.TestComplex(6, 10, int64(seed%4+1))
		nservers, steps := 2+seed%3, 4+seed%3
		opts := Options{
			Cutoff:      10,
			UpdateEvery: 1 + seed%2,
			Seed:        int64(seed),
			Accounting:  seed%2 == 0,
			Minimize:    seed%3 == 0,
			LoD:         LoDMode(seed / 2 % 2),
		}
		if !opts.Minimize {
			opts.InitTemperature = 300
		}
		if seed%4 == 1 {
			sched := fault.Kills(uint64(seed), steps, nservers, 0.2)
			kills += sched.Total()
			opts.SelfHeal, opts.Kills = true, sched.Func()
		}
		for _, plan := range plans {
			faults := plan.cfg(uint64(seed))
			ref := observeBlocking(t, sys, opts, faults, nservers, steps)
			got, _ := observe(t, 2, sys, opts, faults, nservers, steps)
			if d := got.diff(ref); d != "" {
				t.Fatalf("seed %d (%s, accounting %v, %v, self-heal %v), reactor vs blocking servers: %s",
					seed, plan.name, opts.Accounting, opts.LoD, opts.SelfHeal, d)
			}
		}
	}
	if kills == 0 || blockedRecvs == 0 {
		t.Fatalf("%d scheduled kills, %d requests received by blocking servers: the sweep is vacuous", kills, blockedRecvs)
	}
}
