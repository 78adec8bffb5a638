package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// row is one line of the comparison table.
type row struct {
	Workload, Metric string
	A, B             float64
	Unit             string
	Bound            string // the gate applied, "" for information only
	Verdict          string
	Fail             bool
}

// worseBy is the share of the baseline a by which b is worse, negative
// when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareReports judges report b against baseline a: every gated
// end-to-end metric must not be worse than its bound, failed_share must
// not rise, and every per-layer count must repeat exactly.  Per-layer
// timings are listed and never fail.
func compareReports(a, b *report) (rows []row, problems []string) {
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		problems = append(problems, fmt.Sprintf("not comparable: A ran -seed %d -seconds %g, B ran -seed %d -seconds %g",
			a.Seed, a.Seconds, b.Seed, b.Seconds))
		return nil, problems
	}
	byName := map[string]*workloadReport{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			problems = append(problems, fmt.Sprintf("%s: missing from B", wa.Name))
			continue
		}
		for _, m := range endToEndMetrics {
			va, oka := wa.EndToEnd[m.Name]
			vb, okb := wb.EndToEnd[m.Name]
			if !oka && !okb {
				continue
			}
			r := row{Workload: wa.Name, Metric: m.Name, A: va.Value, B: vb.Value, Unit: m.Unit,
				Bound: fmt.Sprintf("%.0f%%", m.Bound*100), Verdict: "ok"}
			if oka != okb {
				r.Verdict, r.Fail = "MISSING", true
			} else if worseBy(va.Value, vb.Value, m.Better) > m.Bound {
				r.Verdict, r.Fail = "REGRESSED", true
			}
			rows = append(rows, r)
		}
		r := row{Workload: wa.Name, Metric: "failed_share", A: wa.FailedShare, B: wb.FailedShare,
			Unit: "ratio", Bound: "no rise", Verdict: "ok"}
		if wb.FailedShare > wa.FailedShare {
			r.Verdict, r.Fail = "REGRESSED", true
		}
		rows = append(rows, r)
		for _, m := range perLayerMetrics {
			va, oka := wa.PerLayer[m.Name]
			vb, okb := wb.PerLayer[m.Name]
			if !oka || !okb {
				continue
			}
			r := row{Workload: wa.Name, Metric: m.Name, A: va.Value, B: vb.Value, Unit: m.Unit, Verdict: "info"}
			if m.Kind == count {
				r.Bound, r.Verdict = "exact", "ok"
				if va.Value != vb.Value {
					r.Verdict, r.Fail = "DIFFERS", true
				}
			}
			rows = append(rows, r)
		}
	}
	return rows, problems
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints the table and returns the exit code: 0 when B
// holds every gate against A, 1 when it does not, 2 when the two reports
// cannot be compared.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := loadReport(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadReport(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if a.Host != b.Host {
		fmt.Fprintf(w, "note: hosts differ\n  A: %+v\n  B: %+v\n", a.Host, b.Host)
	}
	rows, problems := compareReports(a, b)
	for _, p := range problems {
		fmt.Fprintln(w, p)
	}
	if rows == nil {
		return 2
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tunit\tB/A\tbound\tverdict")
	failed := len(problems) > 0
	for _, r := range rows {
		ratio := "-"
		if r.A != 0 {
			ratio = fmt.Sprintf("%.3f (of %.6g)", r.B/r.A, r.A)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%s\t%s\t%s\n", r.Workload, r.Metric, r.A, r.B, r.Unit, ratio, r.Bound, r.Verdict)
		failed = failed || r.Fail
	}
	tw.Flush()
	if failed {
		return 1
	}
	return 0
}
