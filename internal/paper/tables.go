package paper

import (
	"fmt"
	"strings"

	"opalperf/internal/forcefield"
	"opalperf/internal/harness"
	"opalperf/internal/hpm"
	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/pairlist"
	"opalperf/internal/platform"
	"opalperf/internal/pvm"
	"opalperf/internal/report"
)

// Table1Row is one row of the paper's Table 1: the computation speed
// parameters of a platform measured with the isolated Opal kernel.
type Table1Row struct {
	Platform     string
	ClockMHz     float64
	ExecSeconds  float64
	CountedMFlop float64
	RateMFlops   float64
	RelativePct  float64 // counted flops relative to the J90
	// AdjustedMFlop is the paper's "adjusted computation rate": the raw
	// rate corrected for the flop-count inflation, normalized — as in
	// Table 1 — to the J90's counting (filled in by Table1).
	AdjustedMFlop float64
}

// kernelPairs is sized so that the canonical kernel work is the paper's
// 325.80 MFlop (the PGI-compiled x86 count).
func kernelPairs() float64 {
	return 325.80e6 / forcefield.PairEnergyOps.Canonical()
}

// KernelBench runs the isolated Opal application kernel (the non-bonded
// inner loop over charged pairs) as a micro-benchmark on one simulated
// platform and reads the hardware performance monitor, reproducing one
// row of Table 1.
func KernelBench(pl *platform.Platform) (Table1Row, error) {
	sim := pvm.NewSimVM(pl, nil)
	var mon *hpm.Monitor
	var elapsed float64
	sim.SpawnRoot("kernel", func(t pvm.Task) {
		t.SetWorkingSet(8 << 20) // the kernel's in-core working set
		t.Charge("comp_nbint", forcefield.PairEnergyOps.Times(kernelPairs()))
		mon = t.Monitor()
		elapsed = t.Now()
	})
	if err := sim.Run(); err != nil {
		return Table1Row{}, err
	}
	c := mon.Counter("comp_nbint")
	return Table1Row{
		Platform:     pl.Name,
		ClockMHz:     pl.ClockMHz,
		ExecSeconds:  elapsed,
		CountedMFlop: c.Counted / 1e6,
		RateMFlops:   c.MFlops(),
	}, nil
}

// Table1 measures every platform and fills in the J90-relative column.
func Table1(pls []*platform.Platform) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, len(pls))
	var j90Counted float64
	for _, pl := range pls {
		r, err := KernelBench(pl)
		if err != nil {
			return nil, err
		}
		if pl.Name == platform.J90().Name {
			j90Counted = r.CountedMFlop
		}
		rows = append(rows, r)
	}
	if j90Counted > 0 {
		for i := range rows {
			rows[i].RelativePct = 100 * rows[i].CountedMFlop / j90Counted
			rows[i].AdjustedMFlop = rows[i].RateMFlops * 100 / rows[i].RelativePct
		}
	}
	return rows, nil
}

// Table1Report renders Table 1.
func Table1Report(rows []Table1Row) *report.Table {
	t := &report.Table{
		Title: "Table 1 — computation speed parameters (isolated Opal kernel)",
		Headers: []string{"platform", "clock[MHz]", "time[s]", "counted[MFlop]",
			"rate[MFlop/s]", "rel[%]", "adjusted[MFlop/s]"},
	}
	for _, r := range rows {
		t.AddRowf(2, r.Platform, r.ClockMHz, r.ExecSeconds, r.CountedMFlop,
			r.RateMFlops, r.RelativePct, r.AdjustedMFlop)
	}
	return t
}

// Table2Row is one row of the paper's Table 2: communication speed
// parameters from a ping-pong micro-benchmark.
type Table2Row struct {
	Platform    string
	PeakMBs     float64
	ObservedMBs float64
	LatencySec  float64
}

// PingPong measures the observed bandwidth and latency between two tasks
// on a simulated platform: latency from empty-message round trips,
// bandwidth from large transfers.
func PingPong(pl *platform.Platform) (Table2Row, error) {
	sim := pvm.NewSimVM(pl, nil)
	const rounds = 4
	const bigBytes = 8 << 20
	var latency, bandwidth float64
	sim.SpawnRoot("ping", func(t pvm.Task) {
		tids := t.Spawn("pong", 1, func(s pvm.Task) {
			for i := 0; i < rounds*2; i++ {
				b, src, tag := s.Recv(pvm.AnySrc, pvm.AnyTag)
				s.Send(src, tag, b)
			}
		})
		peer := tids[0]
		// Empty-message round trips give 2*b1 each.
		t0 := t.Now()
		for i := 0; i < rounds; i++ {
			t.Send(peer, 1, pvm.NewBuffer())
			t.Recv(peer, 1)
		}
		latency = (t.Now() - t0) / (2 * rounds)
		// Large transfers give the observed bandwidth.  The payload is
		// packed once: every round sends the same 8 MiB buffer.
		big := pvm.NewBuffer().PackFloat64s(make([]float64, bigBytes/8))
		t0 = t.Now()
		for i := 0; i < rounds; i++ {
			t.Send(peer, 2, big)
			t.Recv(peer, 2)
		}
		elapsed := t.Now() - t0
		bandwidth = float64(2*rounds*bigBytes) / elapsed
	})
	if err := sim.Run(); err != nil {
		return Table2Row{}, err
	}
	return Table2Row{
		Platform:    pl.Name,
		PeakMBs:     pl.CommPeakMBs,
		ObservedMBs: bandwidth / 1e6,
		LatencySec:  latency,
	}, nil
}

// Table2 measures every platform.
func Table2(pls []*platform.Platform) ([]Table2Row, error) {
	rows := make([]Table2Row, 0, len(pls))
	for _, pl := range pls {
		r, err := PingPong(pl)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// Table2Report renders Table 2.
func Table2Report(rows []Table2Row) *report.Table {
	t := &report.Table{
		Title:   "Table 2 — communication speed parameters (ping-pong)",
		Headers: []string{"platform", "peak[MB/s]", "observed[MB/s]", "latency"},
	}
	for _, r := range rows {
		lat := fmt.Sprintf("%.0f usec", r.LatencySec*1e6)
		if r.LatencySec >= 1e-3 {
			lat = fmt.Sprintf("%.0f msec", r.LatencySec*1e3)
		}
		t.AddRowf(1, r.Platform, r.PeakMBs, r.ObservedMBs, lat)
	}
	return t
}

// MemoryRow is one row of the Section 2.6 memory-hierarchy experiment.
type MemoryRow struct {
	Level      string
	WorkingSet int
	RateMFlops float64
	Relative   float64
}

// MemoryHierarchy runs the comp_nbint loop at the paper's three working
// sets on a Pentium 200 node (the slow CoPs node) and reports the
// achieved computation rate per memory level.
func MemoryHierarchy() ([]MemoryRow, error) {
	pl := platform.SlowCoPs()
	workingSets := []struct {
		name string
		ws   int
	}{
		{"in cache", 50 << 10},
		{"in core", 8 << 20},
		{"out of core", 120 << 20},
	}
	var rows []MemoryRow
	var coreRate float64
	for _, c := range workingSets {
		sim := pvm.NewSimVM(pl, nil)
		var rate float64
		ws := c.ws
		sim.SpawnRoot("kernel", func(t pvm.Task) {
			t.SetWorkingSet(ws)
			t.Charge("comp_nbint", forcefield.PairEnergyOps.Times(1e6))
			rate = t.Monitor().Counter("comp_nbint").MFlops()
		})
		if err := sim.Run(); err != nil {
			return nil, err
		}
		if c.name == "in core" {
			coreRate = rate
		}
		rows = append(rows, MemoryRow{Level: c.name, WorkingSet: c.ws, RateMFlops: rate})
	}
	for i := range rows {
		if coreRate > 0 {
			rows[i].Relative = rows[i].RateMFlops / coreRate
		}
	}
	return rows, nil
}

// MemoryReport renders the Section 2.6 memory table.
func MemoryReport(rows []MemoryRow) *report.Table {
	t := &report.Table{
		Title:   "Section 2.6 — comp_nbint rate vs working set (Pentium 200)",
		Headers: []string{"placement", "working set", "rate[MFlop/s]", "relative"},
	}
	for _, r := range rows {
		t.AddRowf(2, r.Level, fmtBytes(r.WorkingSet), r.RateMFlops, r.Relative)
	}
	return t
}

// SpaceReport renders the Section 2.6 space-complexity table.
func SpaceReport(sys *molecule.System, cutoff float64, p int) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Section 2.6 — data structure sizes (%s, %d mass centers, p=%d)",
			sys.Name, sys.N, p),
		Headers: []string{"structure", "order", "bytes"},
	}
	for _, e := range md.SpaceModel(sys, cutoff, p) {
		t.AddRow(e.Name, e.Order, fmtBytes(int(e.Bytes)))
	}
	return t
}

func fmtBytes(b int) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

// table1Figure is Table 1 over the platform catalogue; its metric is the
// J90's kernel time.
func table1Figure(Scale) (Output, error) {
	rows, err := Table1(platform.All())
	if err != nil {
		return Output{}, err
	}
	var j90 float64
	for _, r := range rows {
		if r.Platform == platform.J90().Name {
			j90 = r.ExecSeconds
		}
	}
	return Output{
		Files:   map[string]string{"table1_computation.txt": Table1Report(rows).String()},
		Metrics: []Metric{{Unit: "j90-kernel-s", Value: j90}},
	}, nil
}

// table2Figure is Table 2 over the platform catalogue; its metric is the
// J90's observed ping-pong bandwidth.
func table2Figure(Scale) (Output, error) {
	rows, err := Table2(platform.All())
	if err != nil {
		return Output{}, err
	}
	var j90 float64
	for _, r := range rows {
		if r.Platform == platform.J90().Name {
			j90 = r.ObservedMBs
		}
	}
	return Output{
		Files:   map[string]string{"table2_communication.txt": Table2Report(rows).String()},
		Metrics: []Metric{{Unit: "j90-MB/s", Value: j90}},
	}, nil
}

// memoryFigure is the Section 2.6 working-set sweep; its metric is the
// out-of-core rate.
func memoryFigure(Scale) (Output, error) {
	rows, err := MemoryHierarchy()
	if err != nil {
		return Output{}, err
	}
	return Output{
		Files:   map[string]string{"sec26_memory.txt": MemoryReport(rows).String()},
		Metrics: []Metric{{Unit: "out-of-core-MFlop/s", Value: rows[2].RateMFlops}},
	}, nil
}

// spaceFigure is the Section 2.6 space-complexity table of the paper's
// large example without and with the cut-off; its metric is the pair
// list without it.
func spaceFigure(Scale) (Output, error) {
	sys := molecule.LFB()
	var sb strings.Builder
	SpaceReport(sys, 0, 1).Render(&sb)
	sb.WriteString("\n")
	SpaceReport(sys, harness.EffectiveCutoff, 1).Render(&sb)
	var pairListMB float64
	for _, e := range md.SpaceModel(sys, 0, 1) {
		if e.Name == "pair list" {
			pairListMB = float64(e.Bytes) / 1e6
		}
	}
	return Output{
		Files:   map[string]string{"sec26_space.txt": sb.String()},
		Metrics: []Metric{{Unit: "pairlist-MB", Value: pairListMB}},
	}, nil
}

// listPairs is the pair count of the medium complex's 10 A list, built
// as one server's list is: the list md's row kernel walks.  It writes no
// file.
func listPairs(s Scale) (Output, error) {
	sys := s.Sizes["medium"]
	l := pairlist.NewList(sys.N, pairlist.RowsOf(pairlist.Owners(sys.N, 1, pairlist.LCG, 1), 0))
	l.Update(sys.Pos, harness.EffectiveCutoff, nil)
	return Output{Metrics: []Metric{{Unit: "pairs", Value: float64(l.NActive)}}}, nil
}
