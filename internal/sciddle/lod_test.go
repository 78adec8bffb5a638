package sciddle

import (
	"math"
	"testing"

	"opalperf/internal/hpm"
	"opalperf/internal/platform"
	"opalperf/internal/pvm"
	"opalperf/internal/trace"
	"opalperf/internal/vm"
)

// busyService's handler does enough host work (~0.1 ms) for the run-ahead
// gate to hand it to the session's helper where there is a spare core.
func busyService() *Service {
	svc := NewService("busy")
	svc.Register("work", func(t pvm.Task, req *pvm.Buffer) *pvm.Buffer {
		flops := req.MustFloat64()
		x := 0.0
		for i := 0; i < 100000; i++ {
			x += math.Sqrt(float64(i))
		}
		t.Charge("work", hpm.Ops{Mul: flops})
		return pvm.NewBuffer().PackFloat64(x).PackInt(t.Instance())
	})
	return svc
}

// TestAccountingLoDAlternates: level of detail is a per-phase choice in
// accounting mode.  A connection to four reactor servers suspends macro
// replay every third phase from the second on, so every fine-grained
// phase follows an odd number of replayed ones: a replay that left the
// servers' barrier parity behind the client's would deadlock there.  The
// run reproduces a fine-grained run bit for bit — makespan, every proc's
// vm.Stats and the RPC flows — and counts its phases exactly.
func TestAccountingLoDAlternates(t *testing.T) {
	const nsrv, phases = 4, 12
	type outcome struct {
		makespan        float64
		procs           []vm.Stats
		flows           []trace.Flow
		macro, fallback int
	}
	run := func(lod bool) outcome {
		var o outcome
		rec := trace.NewRecorder()
		s := pvm.NewSimVM(platform.J90(), rec)
		s.SpawnRoot("client", func(ct pvm.Task) {
			tids := ct.Spawn("server", nsrv, func(st pvm.Task) {
				Serve(st, busyService(), ServeOptions{Accounting: true, Parties: nsrv + 1})
			})
			c := Connect(ct, tids)
			c.SetAccounting(true)
			work := func(k int) {
				mustPhase(c, "work", func(i int) float64 { return float64((i+1)*(k%5+1)) * 1e5 })
			}
			// The start-up phase runs fine-grained, as RunParallel's init
			// does: the servers are not parked before it.
			work(-1)
			c.SetLoD(lod)
			for k := 0; k < phases; k++ {
				if k%3 == 1 {
					c.SuspendLoD()
				}
				work(k)
				c.ResumeLoD()
			}
			o.macro, o.fallback = c.LoDPhases()
			c.Close()
		})
		if err := s.Run(); err != nil {
			t.Fatalf("LoD %v: %v", lod, err)
		}
		o.makespan = s.Kernel.MaxTime()
		for _, p := range s.Kernel.Procs() {
			o.procs = append(o.procs, p.Stats())
		}
		o.flows = rec.Flows()
		return o
	}
	off, on := run(false), run(true)
	if off.macro != 0 || off.fallback != 0 {
		t.Errorf("LoD off: %d macro / %d fallback phases, want 0 / 0", off.macro, off.fallback)
	}
	if want := phases / 3; on.macro != phases-want || on.fallback != want {
		t.Errorf("LoD on: %d macro / %d fallback phases, want %d / %d", on.macro, on.fallback, phases-want, want)
	}
	if on.makespan != off.makespan {
		t.Errorf("makespan %v with LoD, %v without", on.makespan, off.makespan)
	}
	if len(on.procs) != len(off.procs) {
		t.Fatalf("%d procs with LoD, %d without", len(on.procs), len(off.procs))
	}
	for id := range off.procs {
		if on.procs[id] != off.procs[id] {
			t.Errorf("proc %d stats differ:\nLoD on  %+v\nLoD off %+v", id, on.procs[id], off.procs[id])
		}
	}
	if len(on.flows) != len(off.flows) {
		t.Fatalf("%d flows with LoD, %d without", len(on.flows), len(off.flows))
	}
	for i := range off.flows {
		if on.flows[i] != off.flows[i] {
			t.Errorf("flow %d differs:\nLoD on  %+v\nLoD off %+v", i, on.flows[i], off.flows[i])
		}
	}
}
