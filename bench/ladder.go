package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"opalperf/internal/archive"
	"opalperf/internal/core"
	"opalperf/internal/ctlplane"
	"opalperf/internal/forcefield"
	"opalperf/internal/harness"
	"opalperf/internal/md"
	"opalperf/internal/pairlist"
	"opalperf/internal/pvm"
	"opalperf/internal/sciddle"
	"opalperf/internal/telemetry"
	"opalperf/internal/trace"
	"opalperf/internal/vm"
)

// The ladder: one rung per layer, each a direct timed call into the
// layer's public API from outside the program, with arrays and shapes
// taken from the workload's own simulation input.  A rung repeats a
// fixed-size batch until its share of the budget is spent and reports the
// median batch.

// rung is one ladder measurement.  batch runs one batch and returns its
// elapsed time and how many units of work it did; scale converts
// nanoseconds per unit into the metric's unit.
type rung struct {
	name  string
	scale float64
	batch func() (time.Duration, float64, error)
}

const (
	perNS = 1
	perUS = 1e-3
	perMS = 1e-6
)

// measure runs r for about budget (at least three batches) and returns
// the median cost per unit in the rung's unit.
func (r rung) measure(budget time.Duration) (float64, error) {
	var costs []float64
	t0 := time.Now()
	for len(costs) < 3 || time.Since(t0) < budget {
		d, units, err := r.batch()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", r.name, err)
		}
		if units <= 0 {
			return 0, fmt.Errorf("%s: batch did no work", r.name)
		}
		costs = append(costs, float64(d)/units*r.scale)
	}
	return median(costs), nil
}

// sink receives the results of measured calls so the compiler cannot
// discard them.
var sink float64

// timed runs fn n times and returns the elapsed time with n as the units.
func timed(n int, fn func()) (time.Duration, float64, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(t0), float64(n), nil
}

// runLadder measures every rung against spec and stores the results in
// out.  dir is a scratch directory for the archive rungs; the caller
// removes it.
func runLadder(spec simSpec, dir string, budget time.Duration, out map[string]float64) error {
	rungs, cleanup, err := ladderRungs(spec, dir)
	if err != nil {
		return err
	}
	defer cleanup()
	per := budget / time.Duration(len(rungs))
	for _, r := range rungs {
		v, err := r.measure(per)
		if err != nil {
			return err
		}
		out[r.name] = v
	}
	return nil
}

func ladderRungs(spec simSpec, dir string) ([]rung, func(), error) {
	sys := spec.Sys
	pos := sys.Pos
	every := max(spec.Opts.UpdateEvery, 1)

	// pvm: the position vector is what every step ships to every server.
	buf := pvm.NewBuffer()
	dst := make([]float64, len(pos))
	kb := float64(8*len(pos)) / 1024

	// forcefield + pairlist: one server's view of the whole system, so the
	// unit costs do not depend on how the rows were dealt.
	rows := make([]int, sys.N)
	for i := range rows {
		rows[i] = i
	}
	list := pairlist.NewList(sys.N, rows)
	excl := forcefield.BuildExclusions(sys)
	lj := forcefield.BuildLJ(forcefield.DefaultLJ())
	checks, _ := list.Update(pos, spec.Opts.Cutoff, excl)
	if list.NActive == 0 || checks == 0 {
		return nil, nil, fmt.Errorf("ladder: %s has no active pairs at cut-off %g", sys.Name, spec.Opts.Cutoff)
	}
	grad := make([]float64, 3*sys.N)

	// trace: the recorder of a real op is what the reduction walks.
	full, err := harness.Run(spec)
	if err != nil {
		return nil, nil, err
	}

	mach := core.MachineFor(spec.Platform, sys.Gamma())
	app := core.AppFor(sys, spec.Opts.Cutoff, every, spec.Servers, spec.Steps)

	arch, err := newArchiveRungs(dir)
	if err != nil {
		return nil, nil, err
	}
	ctl := newCtlRungs()

	rungs := []rung{
		{"vm.roundtrip_ns", perNS, vmRoundtrip},

		{"pvm.pack_ns_per_kb", perNS, func() (time.Duration, float64, error) {
			d, n, _ := timed(2000, func() { buf.Reset().PackFloat64s(pos) })
			return d, n * kb, nil
		}},
		{"pvm.unpack_ns_per_kb", perNS, func() (time.Duration, float64, error) {
			var uerr error
			d, n, _ := timed(2000, func() {
				if err := buf.Rewind().UnpackFloat64sInto(dst); err != nil {
					uerr = err
				}
			})
			return d, n * kb, uerr
		}},
		{"pvm.sim_roundtrip_ns", perNS, func() (time.Duration, float64, error) { return simRoundtrip(spec) }},

		{"sciddle.phase_fine_us", perUS, func() (time.Duration, float64, error) { return sciddlePhases(spec, false) }},
		{"sciddle.phase_macro_us", perUS, func() (time.Duration, float64, error) { return sciddlePhases(spec, true) }},

		{"forcefield.ns_per_pair", perNS, func() (time.Duration, float64, error) {
			reps := 1 + 20000/list.NActive
			d, n, _ := timed(reps, func() {
				for i := range grad {
					grad[i] = 0
				}
				var evdw, ecoul float64
				for r, i := range list.Rows {
					row := list.Pairs[r]
					if len(row) == 0 {
						continue
					}
					c12, c6 := lj.Row(sys.Type[i])
					evdw, ecoul, _, _ = forcefield.PairEnergyRow(pos, i, row, sys.Type, c12, c6,
						sys.Charge[i], sys.Charge, grad, evdw, ecoul)
				}
				sink += evdw + ecoul
			})
			return d, n * float64(list.NActive), nil
		}},
		{"pairlist.update_ns_per_check", perNS, func() (time.Duration, float64, error) {
			reps := 1 + 50000/checks
			d, n, _ := timed(reps, func() { list.Update(pos, spec.Opts.Cutoff, excl) })
			return d, n * float64(checks), nil
		}},

		{"md.serial_step_ms", perMS, func() (time.Duration, float64, error) { return serialSteps(spec) }},

		{"trace.segment_ns", perNS, func() (time.Duration, float64, error) {
			rec := trace.NewRecorder()
			t := 0.0
			return timed(50000, func() {
				rec.Segment(1, "opal-server-0", vm.SegCompute, t, t+1e-3)
				t += 1e-3
			})
		}},
		{"trace.reduce_ms", perMS, func() (time.Duration, float64, error) {
			res := full.Result
			return timed(1, func() {
				b := trace.ComputeBreakdownBetween(full.Recorder, 0, res.ServerTIDs, res.StartSeconds, res.EndSeconds, full.Wall)
				sink += b.Idle
			})
		}},

		{"telemetry.emit_ns", perNS, func() (time.Duration, float64, error) {
			j := telemetry.StartJournal(io.Discard, 0)
			defer telemetry.StopJournal()
			return timed(5000, func() {
				j.Emit("ctl_job_accepted", telemetry.F{"job": "job-000001", "tenant": "default", "coalesced": false})
			})
		}},

		{"archive.append_us", perUS, arch.appendPlain},
		{"archive.append_sync_ms", perMS, arch.appendSync},
		{"archive.summaries_ms", perMS, arch.summaries},
		{"archive.open_ms", perMS, arch.open},

		{"core.predict_ns", perNS, func() (time.Duration, float64, error) {
			return timed(20000, func() { sink += mach.Predict(app).Total() })
		}},
		{"core.machinefor_us", perUS, func() (time.Duration, float64, error) {
			return timed(2000, func() { sink += core.MachineFor(spec.Platform, sys.Gamma()).A3 })
		}},

		{"ctlplane.canon_hash_ns", perNS, ctl.canonHash},
		{"ctlplane.submit_us", perUS, ctl.submit},
		{"ctlplane.submit_dup_us", perUS, ctl.submitDup},
		{"ctlplane.predict_handler_us", perUS, ctl.predictWarm},
		{"ctlplane.predict_cold_ms", perMS, ctl.predictCold},
	}
	return rungs, arch.close, nil
}

// vmRoundtrip is the kernel's request/reply exchange between two
// processes: two sends, two receives, four goroutine handoffs.
func vmRoundtrip() (time.Duration, float64, error) {
	const warm, n = 200, 5000
	k := vm.NewKernel(vm.FixedCost{Overhead: 1e-6, ByteRate: 1e9, Latency: 1e-6}, nil)
	var payload any = "x"
	var elapsed time.Duration
	k.NewProc("client", nil, func(p *vm.Proc) {
		exchange := func() {
			p.Send(1, 1, payload, 64)
			p.Kernel().Recycle(p.RecvSrcTag(1, 2))
		}
		for i := 0; i < warm; i++ {
			exchange()
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			exchange()
		}
		elapsed = time.Since(t0)
	})
	k.NewProc("server", nil, func(p *vm.Proc) {
		for i := 0; i < warm+n; i++ {
			m := p.RecvSrcTag(0, 1)
			pl := m.Payload
			p.Kernel().Recycle(m)
			p.Send(0, 2, pl, 64)
		}
	})
	if err := k.Run(); err != nil {
		return 0, 0, err
	}
	return elapsed, n, nil
}

// simRoundtrip is the same exchange one layer up: pvm buffers over the
// simulated fabric with the workload's platform cost model, the position
// vector as payload.
func simRoundtrip(spec simSpec) (time.Duration, float64, error) {
	const n = 3000
	const tagReq, tagRep, tagStop = 1, 2, 3
	sim := pvm.NewSimVM(spec.Platform, nil)
	var elapsed time.Duration
	sim.SpawnRoot("client", func(t pvm.Task) {
		tids := t.Spawn("echo", 1, func(st pvm.Task) {
			rep := pvm.NewBuffer()
			for {
				_, _, tag := st.Recv(t.TID(), pvm.AnyTag)
				if tag == tagStop {
					return
				}
				st.Send(t.TID(), tagRep, rep.Reset().PackInt(1))
			}
		})
		req := pvm.NewBuffer()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			t.Send(tids[0], tagReq, req.Reset().PackFloat64s(spec.Sys.Pos))
			t.Recv(tids[0], tagRep)
		}
		elapsed = time.Since(t0)
		t.Send(tids[0], tagStop, pvm.NewBuffer())
	})
	if err := sim.Run(); err != nil {
		return 0, 0, err
	}
	return elapsed, n, nil
}

// sciddlePhases times packed call phases to the workload's fleet of no-op
// servers, fine-grained or macro-replayed.
func sciddlePhases(spec simSpec, lod bool) (time.Duration, float64, error) {
	const n = 300
	p := spec.Servers
	if p <= 0 {
		p = 1
	}
	svcs := make([]*sciddle.Service, p)
	for i := range svcs {
		svcs[i] = sciddle.NewService("noop")
		svcs[i].Register("noop", func(pvm.Task, *pvm.Buffer) *pvm.Buffer { return nil })
	}
	sim := pvm.NewSimVM(spec.Platform, nil)
	var elapsed time.Duration
	var macro int
	sim.SpawnRoot("client", func(t pvm.Task) {
		tids := t.Spawn("noop-server", p, func(st pvm.Task) {
			sciddle.Serve(st, svcs[st.Instance()], sciddle.ServeOptions{})
		})
		for i, tid := range tids {
			pvm.RegisterDirect(t, tid, pvm.DirectEntry{Obj: svcs[i], Dispatch: sciddle.DirectDispatcher(svcs[i])})
		}
		conn := sciddle.Connect(t, tids)
		// The first phase always runs fine-grained: the servers are not yet
		// parked in their receive loops.
		conn.CallPhasePacked("noop", nil)
		conn.SetLoD(lod)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			conn.CallPhasePacked("noop", nil)
		}
		elapsed = time.Since(t0)
		macro, _ = conn.LoDPhases()
		conn.Close()
	})
	if err := sim.Run(); err != nil {
		return 0, 0, err
	}
	if lod && macro != n {
		return 0, 0, fmt.Errorf("only %d of %d phases were macro-replayed", macro, n)
	}
	return elapsed, n, nil
}

// serialSteps runs the serial engine on the workload's system.
func serialSteps(spec simSpec) (time.Duration, float64, error) {
	sim := pvm.NewSimVM(spec.Platform, nil)
	var err error
	sim.SpawnRoot("opal", func(t pvm.Task) {
		_, err = md.RunSerial(t, spec.Sys, spec.Opts, spec.Steps)
	})
	t0 := time.Now()
	if e := sim.Run(); e != nil {
		return 0, 0, e
	}
	return time.Since(t0), float64(spec.Steps), err
}

// archiveRungs measure the warehouse: appends into a fresh archive, reads
// and reopen over one of 10k records (a few days of a busy daemon).
type archiveRungs struct {
	dir   string
	small *archive.Archive
	big   *archive.Archive
	rec   archive.Record
}

const warehouseRecords = 10000

func newArchiveRungs(dir string) (*archiveRungs, error) {
	a := &archiveRungs{dir: dir}
	data, err := json.Marshal(archive.RunSummary{
		Run: "job-000001", Spec: "0123456789abcdef01234567", Tenant: "default",
		Platform: "Cray J90 Classic", System: "small (scaled)", Servers: 4, Steps: 120,
		Wall: 1.25, EnergiesHash: "0123456789abcdef", Par: 0.5, Seq: 0.25, Comm: 0.25, Sync: 0.125, Idle: 0.125,
	})
	if err != nil {
		return nil, err
	}
	a.rec = archive.Record{Kind: archive.KindSummary, Run: "job-000001", Spec: "0123456789abcdef01234567", Tenant: "default", Data: data}
	if a.small, err = archive.Open(filepath.Join(dir, "small")); err != nil {
		return nil, err
	}
	if a.big, err = archive.Open(filepath.Join(dir, "big")); err != nil {
		a.small.Close()
		return nil, err
	}
	for i := 0; i < warehouseRecords; i++ {
		if err := a.big.Append(a.rec); err != nil {
			a.close()
			return nil, err
		}
	}
	return a, a.big.Sync()
}

func (a *archiveRungs) close() {
	a.small.Close()
	a.big.Close()
}

func (a *archiveRungs) appendPlain() (time.Duration, float64, error) {
	var err error
	d, n, _ := timed(500, func() {
		if e := a.small.Append(a.rec); e != nil {
			err = e
		}
	})
	return d, n, err
}

func (a *archiveRungs) appendSync() (time.Duration, float64, error) {
	var err error
	d, n, _ := timed(3, func() {
		if e := a.small.AppendSync(a.rec); e != nil {
			err = e
		}
	})
	return d, n, err
}

func (a *archiveRungs) summaries() (time.Duration, float64, error) {
	var got int
	d, n, _ := timed(1, func() { got = len(a.big.Summaries(archive.Query{})) })
	if got != warehouseRecords {
		return 0, 0, fmt.Errorf("warehouse returned %d summaries, want %d", got, warehouseRecords)
	}
	return d, n, nil
}

func (a *archiveRungs) open() (time.Duration, float64, error) {
	if err := a.big.Close(); err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	big, err := archive.Open(filepath.Join(a.dir, "big"))
	d := time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	a.big = big
	if big.Len() != warehouseRecords {
		return 0, 0, fmt.Errorf("reopened warehouse holds %d records, want %d", big.Len(), warehouseRecords)
	}
	return d, 1, nil
}

// ctlRungs measure the control plane in-process, without HTTP transport
// or a second process: what of an svc-* op is ctlplane's own code.  The
// server's workers are never started, so submissions only pay admission,
// the store and the queue.
type ctlRungs struct {
	srv     *ctlplane.Server
	handler http.Handler
	seed    int64
	scale   float64
}

func newCtlRungs() *ctlRungs {
	srv := ctlplane.New(ctlplane.Config{
		Workers: 1, QueueCap: 1 << 30,
		TenantRate: 1e9, TenantBurst: 1e9, TenantJobs: -1,
		PredictRate: 1e9, PredictBurst: 1e9,
	})
	return &ctlRungs{srv: srv, handler: srv.Handler(), scale: 0.3}
}

func (c *ctlRungs) jobSpec(seed int64) ctlplane.JobSpec {
	return ctlplane.JobSpec{Size: "small", Scale: runsScale, Servers: runsServers, Steps: runsSteps,
		UpdateEvery: 2, Cutoff: 10, Seed: seed}
}

func (c *ctlRungs) canonHash() (time.Duration, float64, error) {
	spec := c.jobSpec(1)
	var err error
	d, n, _ := timed(2000, func() {
		canon, e := spec.Canonicalize(ctlplane.Limits{})
		if e != nil {
			err = e
		}
		sink += float64(len(canon.Hash()))
	})
	return d, n, err
}

func (c *ctlRungs) submit() (time.Duration, float64, error) {
	var err error
	d, n, _ := timed(200, func() {
		c.seed++
		_, coalesced, e := c.srv.Submit("default", c.jobSpec(c.seed))
		if e != nil {
			err = e
		} else if coalesced {
			err = fmt.Errorf("fresh spec coalesced")
		}
	})
	return d, n, err
}

func (c *ctlRungs) submitDup() (time.Duration, float64, error) {
	if _, _, err := c.srv.Submit("default", c.jobSpec(-1)); err != nil {
		return 0, 0, err
	}
	var err error
	d, n, _ := timed(200, func() {
		_, coalesced, e := c.srv.Submit("default", c.jobSpec(-1))
		if e != nil {
			err = e
		} else if !coalesced {
			err = fmt.Errorf("duplicate spec did not coalesce")
		}
	})
	return d, n, err
}

func (c *ctlRungs) predict(url string) error {
	rec := httptest.NewRecorder()
	c.handler.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, rec.Code, rec.Body.String())
	}
	return nil
}

func (c *ctlRungs) predictWarm() (time.Duration, float64, error) {
	const url = "/v1/predict?platform=j90&size=small&scale=0.05&servers=4&steps=100"
	if err := c.predict(url); err != nil {
		return 0, 0, err
	}
	var err error
	d, n, _ := timed(500, func() {
		if e := c.predict(url); e != nil {
			err = e
		}
	})
	return d, n, err
}

// predictCold asks for a scale never seen before, so the predictor has to
// generate the systems and extract the machine before it can answer.
func (c *ctlRungs) predictCold() (time.Duration, float64, error) {
	c.scale += 1e-4
	url := fmt.Sprintf("/v1/predict?platform=j90&size=small&scale=%g&servers=4&steps=100", c.scale)
	var err error
	d, n, _ := timed(1, func() { err = c.predict(url) })
	return d, n, err
}
