package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"opalperf/internal/vm"
)

// Chrome trace-event / Perfetto export: the recorded per-process
// timelines rendered as a JSON trace that chrome://tracing and
// ui.perfetto.dev load directly, making the paper's Figure 1/2
// execution-time breakdowns interactively inspectable — zoom into one
// call phase and see the request transfers, the accounting barriers, the
// server compute spans and the reply serialization laid out per process.

// chromeEvent is one entry of the trace-event JSON format.  Durations use
// the "X" (complete) phase; process/thread names use the "M" (metadata)
// phase.  Timestamps are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int            `json:"id,omitempty"`
	Bp   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace exports every recorded segment as a Chrome trace-event
// JSON object ({"traceEvents": [...]}).  Virtual seconds map to trace
// microseconds.  names labels process rows like RenderTimeline (missing
// ids fall back to the segment's recorded process name); all processes
// share one trace pid so they stack as threads of one process group.
func WriteChromeTrace(w io.Writer, r *Recorder, names map[int]string) error {
	bw := &errWriter{w: w}
	io.WriteString(bw, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	emit := func(ev chromeEvent) {
		if !first {
			io.WriteString(bw, ",")
		}
		first = false
		b, err := json.Marshal(ev)
		if err != nil {
			panic(fmt.Sprintf("trace: marshal chrome event: %v", err))
		}
		bw.Write(b)
	}

	// Metadata: name each process row once, in first-appearance order.
	procs, recorded := r.procNames()
	for i, proc := range procs {
		label := names[proc]
		if label == "" {
			label = fmt.Sprintf("%s (proc %d)", recorded[i], proc)
		}
		emit(chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: proc,
			Args: map[string]any{"name": label},
		})
	}
	for ci := 0; ci < r.segs.numChunks(); ci++ {
		for _, s := range r.segs.filled(ci) {
			kind := vm.SegKind(s.kind).String()
			emit(chromeEvent{
				Name: kind,
				Cat:  kind,
				Ph:   "X",
				Ts:   s.start * 1e6,
				Dur:  (s.end - s.start) * 1e6,
				Pid:  0,
				Tid:  r.tracks[s.track].proc,
			})
		}
	}

	// RPC flows: one call span per flow on the client row, plus a flow
	// start ("s") there and a flow finish ("f", binding to the enclosing
	// slice) on the server row, so Perfetto draws an arrow from each client
	// call to the matching server execution.  Flow ids are offset by one
	// because id 0 would be dropped by omitempty.
	flows := r.Flows()
	for _, f := range flows {
		emit(chromeEvent{
			Name: f.Method, Cat: "rpc", Ph: "X",
			Ts: f.Issue * 1e6, Dur: (f.Reply - f.Issue) * 1e6,
			Pid: 0, Tid: f.Client,
			Args: map[string]any{"flow": f.ID, "server": f.Server},
		})
		emit(chromeEvent{
			Name: f.Method, Cat: "flow", Ph: "s", ID: f.ID + 1,
			Ts: f.Issue * 1e6, Pid: 0, Tid: f.Client,
		})
		emit(chromeEvent{
			Name: f.Method, Cat: "flow", Ph: "f", Bp: "e", ID: f.ID + 1,
			Ts: f.Reply * 1e6, Pid: 0, Tid: f.Server,
		})
	}
	// Per-link counter tracks ("C" events): cumulative completed calls on
	// each client→server link, sampled at every reply — the trace-side
	// view of the comm matrix, rendered by Perfetto as a step chart per
	// link.
	type linkKey struct{ client, server int }
	sort.SliceStable(flows, func(i, j int) bool { return flows[i].Reply < flows[j].Reply })
	counts := map[linkKey]int{}
	for _, f := range flows {
		k := linkKey{f.Client, f.Server}
		counts[k]++
		emit(chromeEvent{
			Name: fmt.Sprintf("link %d→%d", f.Client, f.Server),
			Cat:  "comm_matrix", Ph: "C",
			Ts: f.Reply * 1e6, Pid: 0,
			Args: map[string]any{"calls": counts[k]},
		})
	}
	io.WriteString(bw, "]}\n")
	return bw.err
}

// errWriter latches the first write error so the export loop stays
// uncluttered.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, nil
}

// ChromeTraceKinds lists the category names the export uses, one per
// segment kind — handy for Perfetto queries.
func ChromeTraceKinds() []string {
	out := make([]string, vm.NumSegKinds)
	for k := 0; k < vm.NumSegKinds; k++ {
		out[k] = vm.SegKind(k).String()
	}
	return out
}
