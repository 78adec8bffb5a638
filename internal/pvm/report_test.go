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
// and ReportFlow — reach a bare simulated task's recorder and comm matrix
// once per call, and nothing through a wrapper that hides the task's type
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
			// A window recorder drops its intervals once its window opens
			// and refuses to open it again, which is how the test sees
			// OpenWindow arrive.
			rec := trace.NewWindowRecorder()
			s := NewSimVM(platform.J90(), rec)
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
				opened = panics(func() { rec.OpenWindow(0) })
				closeErr = panics(func() { CloseWindow(task, 3) })
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if closeErr {
				t.Fatal("CloseWindow panicked: it reached a recorder OpenWindow did not")
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
			closed := panics(func() { rec.CloseWindow(3) })
			if opened != (tc.want == 1) || closed != (tc.want == 1) {
				t.Errorf("window opened %v, closed %v; want both %v", opened, closed, tc.want == 1)
			}
		})
	}
}
