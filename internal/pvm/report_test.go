package pvm

import (
	"testing"

	"opalperf/internal/platform"
	"opalperf/internal/telemetry"
	"opalperf/internal/trace"
	"opalperf/internal/vm"
)

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// The engines' recording hooks — ReportRecovery, OpenWindow, CloseWindow
// and ReportFlow — reach a bare simulated task's kernel, recorder and comm
// matrix once per call, and nothing through a wrapper that hides the task's type
// (the blocking-driver idiom of md's tests): a wrapped task records as a
// task of another fabric does.
func TestReportsReachOnlyBareSimTasks(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(Task) Task
		want int // records of each kind
	}{
		{"bare", func(task Task) Task { return task }, 1},
		{"wrapped", func(task Task) Task { return struct{ Task }{task} }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The kernel refuses to open its window twice, which is how
			// the test sees OpenWindow arrive.
			rec := trace.NewRecorder()
			s := NewSimVM(platform.J90(), rec)
			s.Kernel.HoldWindow()
			sc := &telemetry.Scope{ID: "report-hooks", Matrix: new(telemetry.Matrix)}
			s.SetScope(sc)
			var (
				tid      int
				segs     []trace.Segment
				flows    []trace.Flow
				opened   bool
				closeErr bool
			)
			s.SpawnRoot("client", func(task Task) {
				tid = task.TID()
				task = tc.wrap(task)
				ReportRecovery(task, 1, 2)
				ReportFlow(task, "nbint", 7, 1, 2)
				segs, flows = rec.Segments(), rec.Flows()
				OpenWindow(task, 0)
				opened = panics(func() { s.Kernel.OpenWindow(0) })
				closeErr = panics(func() { CloseWindow(task, 3) })
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if closeErr {
				t.Fatal("CloseWindow panicked: it reached a kernel OpenWindow did not")
			}
			recoveries := 0
			for _, sg := range segs {
				if sg.Proc == tid && sg.Kind == vm.SegRecovery && sg.Start == 1 && sg.End == 2 {
					recoveries++
				}
			}
			if recoveries != tc.want {
				t.Errorf("recovery spans = %d, want %d", recoveries, tc.want)
			}
			if len(flows) != tc.want {
				t.Errorf("flows = %+v, want %d", flows, tc.want)
			}
			if tc.want == 1 {
				if f := flows[0]; f.Method != "nbint" || f.Client != tid || f.Server != 7 || f.Issue != 1 || f.Reply != 2 {
					t.Errorf("flow = %+v", f)
				}
			}
			var calls uint64
			for _, l := range sc.Matrix.Snapshot().Links {
				calls += l.Calls
			}
			if calls != uint64(tc.want) {
				t.Errorf("comm-matrix RPC calls = %d, want %d", calls, tc.want)
			}
			// The window: CloseWindow closed it when closing it once more
			// panics.  Where the hooks do not reach, the test's own
			// OpenWindow left it open, and closing it succeeds.
			closed := panics(func() { s.Kernel.CloseWindow(3) })
			if opened != (tc.want == 1) || closed != (tc.want == 1) {
				t.Errorf("window opened %v, closed %v; want both %v", opened, closed, tc.want == 1)
			}
			// The recovery span, booked before the window opened at 0,
			// is folded into the client's window totals.
			if got := s.Kernel.WindowTotals(tid)[0][vm.SegRecovery]; got != float64(tc.want) {
				t.Errorf("window recovery = %g, want %d", got, tc.want)
			}
		})
	}
}

// TestReportRecoveryInWindow books recovery spans through ReportRecovery
// around a measurement window — one straddling its start, one laid over
// the client's own segments inside it, one straddling its end after the
// close — and requires the breakdown of the kernel's window totals to
// equal the recorder's reduction of the same timeline over the window,
// bit for bit.
func TestReportRecoveryInWindow(t *testing.T) {
	rec := trace.NewRecorder()
	s := NewSimVM(platform.J90(), rec)
	s.Kernel.HoldWindow()
	var tid int
	s.SpawnRoot("client", func(task Task) {
		tid = task.TID()
		p := task.(*simTask).proc
		p.Elapse(0.75, vm.SegCompute)
		ReportRecovery(task, 0.5, 1.5)
		OpenWindow(task, 1)
		p.Elapse(1.5, vm.SegCompute)
		ReportRecovery(task, 1.25, 2)
		p.Elapse(0.5, vm.SegComm)
		CloseWindow(task, 3)
		ReportRecovery(task, 2.5, 4)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	got := s.Kernel.WindowTotals(tid)[0]
	if b, want := trace.BreakdownOf(got, nil, 2), trace.ComputeBreakdownBetween(rec, tid, nil, 1, 3, 2); b != want {
		t.Fatalf("window breakdown %+v, recorder %+v", b, want)
	}
	if got[vm.SegRecovery] != 0.5+0.75+0.5 {
		t.Fatalf("window recovery %g, want 1.75", got[vm.SegRecovery])
	}
}
