package archive

import (
	"fmt"
	"math"
	"testing"
	"time"
)

func openTestArchive(t *testing.T) *Archive {
	t.Helper()
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	a.SetClock(testClock())
	return a
}

func TestQueryFilters(t *testing.T) {
	a := openTestArchive(t)
	base := time.Unix(1700000000, 0).UTC()
	for i := 0; i < 10; i++ {
		rec := Record{
			Kind:   KindSummary,
			Run:    fmt.Sprintf("run-%02d", i),
			Spec:   fmt.Sprintf("spec-%d", i%2),
			Tenant: fmt.Sprintf("t%d", i%3),
			Unix:   base.Add(time.Duration(i) * time.Minute).UnixNano(),
			Data:   []byte(fmt.Sprintf(`{"run":"run-%02d","spec":"spec-%d","wall":%d}`, i, i%2, i)),
		}
		if err := a.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(a.Select(Query{Spec: "spec-0"})); got != 5 {
		t.Fatalf("spec filter: %d, want 5", got)
	}
	if got := len(a.Select(Query{Tenant: "t1"})); got != 3 {
		t.Fatalf("tenant filter: %d, want 3", got)
	}
	if got := len(a.Select(Query{Run: "run-07"})); got != 1 {
		t.Fatalf("run filter: %d, want 1", got)
	}
	// Since inclusive, Until exclusive.
	got := a.Select(Query{Since: base.Add(2 * time.Minute), Until: base.Add(5 * time.Minute)})
	if len(got) != 3 {
		t.Fatalf("time window: %d records, want 3", len(got))
	}
	if got[0].Run != "run-02" || got[2].Run != "run-04" {
		t.Fatalf("time window bounds wrong: %s..%s", got[0].Run, got[2].Run)
	}
	// Combined filters intersect.
	if got := len(a.Select(Query{Spec: "spec-1", Tenant: "t1"})); got != 2 {
		t.Fatalf("combined filter: %d, want 2", got)
	}
	specs := a.Specs()
	if len(specs) != 2 || specs[0] != "spec-0" || specs[1] != "spec-1" {
		t.Fatalf("Specs = %v", specs)
	}
}

func TestSummariesOrderAndSkipUndecodable(t *testing.T) {
	a := openTestArchive(t)
	// Out-of-order stamps: Summaries must sort by time.
	for _, i := range []int{3, 1, 2} {
		if err := a.Append(Record{
			Kind: KindSummary, Run: fmt.Sprintf("r%d", i), Spec: "s", Unix: int64(i),
			Data: []byte(fmt.Sprintf(`{"run":"r%d","spec":"s","wall":%d}`, i, i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// An undecodable summary payload is skipped, not fatal.
	if err := a.Append(Record{Kind: KindSummary, Run: "bad", Spec: "s", Unix: 9, Data: []byte(`"just a string"`)}); err != nil {
		t.Fatal(err)
	}
	sums := a.Summaries(Query{Spec: "s"})
	if len(sums) != 3 {
		t.Fatalf("Summaries = %d, want 3", len(sums))
	}
	for i, want := range []string{"r1", "r2", "r3"} {
		if sums[i].Run != want {
			t.Fatalf("order[%d] = %s, want %s", i, sums[i].Run, want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p, want float64
	}{
		{0, 15}, {5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile not NaN")
	}
	// Input must not be mutated (Percentile sorts a copy).
	orig := []float64{3, 1, 2}
	Percentile(orig, 50)
	if orig[0] != 3 || orig[1] != 1 || orig[2] != 2 {
		t.Fatalf("Percentile mutated its input: %v", orig)
	}
}

func TestCohortsAndDrift(t *testing.T) {
	var sums []RunSummary
	for i := 0; i < 8; i++ {
		sums = append(sums, RunSummary{
			Run: fmt.Sprintf("r%d", i), Spec: "s", Wall: float64(10 + i),
			Chaos: i%2 == 1,
			Residuals: map[string]float64{
				"comm": 0.01 * float64(i),
			},
			Unix: int64(i + 1),
		})
	}
	ff, chaos := SplitCohorts(sums)
	if len(ff) != 4 || len(chaos) != 4 {
		t.Fatalf("cohorts %d/%d, want 4/4", len(ff), len(chaos))
	}
	c := CohortOf(Walls(ff))
	if c.Count != 4 || c.Min != 10 || c.Max != 16 {
		t.Fatalf("fault-free cohort digest wrong: %+v", c)
	}
	drift := ResidualDrift(sums)
	if len(drift) != 8 {
		t.Fatalf("drift series = %d points, want 8", len(drift))
	}
	if drift[3].Residuals["comm"] != 0.03 {
		t.Fatalf("drift[3] = %v", drift[3].Residuals)
	}
	// Summaries without residuals drop out of the series.
	if got := ResidualDrift([]RunSummary{{Run: "x"}}); len(got) != 0 {
		t.Fatalf("no-oracle run leaked into drift: %v", got)
	}
}

// TestQuerySweepScaleUnderOneSecond pins the acceptance bound: percentile
// aggregation over a 27-scenario x 25-seed archived sweep (675 summaries
// plus their event noise) must come back in well under a second.
func TestQuerySweepScaleUnderOneSecond(t *testing.T) {
	a := openTestArchive(t)
	for sc := 0; sc < 27; sc++ {
		spec := fmt.Sprintf("spec-%02d", sc)
		for seed := 0; seed < 25; seed++ {
			run := fmt.Sprintf("scn%02d#%03d", sc, seed)
			for e := 0; e < 4; e++ {
				if err := a.Append(Record{Kind: KindEvent, Run: run, Unix: 1, Data: []byte(`{"type":"step"}`)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.AppendSummary(RunSummary{
				Run: run, Spec: spec, Wall: float64(sc) + float64(seed)*0.01,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	a.Close()

	start := time.Now()
	b, err := Open(a.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	specs := b.Specs()
	if len(specs) != 27 {
		t.Fatalf("specs = %d, want 27", len(specs))
	}
	total := 0
	for _, spec := range specs {
		sums := b.Summaries(Query{Spec: spec})
		total += len(sums)
		c := CohortOf(Walls(sums))
		if c.Count != 25 {
			t.Fatalf("spec %s cohort = %d, want 25", spec, c.Count)
		}
	}
	if total != 675 {
		t.Fatalf("total summaries = %d, want 675", total)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("open+percentiles over 675-run sweep took %v, want < 1s", elapsed)
	}
}
