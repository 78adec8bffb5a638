package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"opalperf/internal/vm"
)

func TestWriteChromeTrace(t *testing.T) {
	r := NewRecorder()
	r.Segment(0, "opal-client", vm.SegCompute, 0, 0.5)
	r.Segment(0, "opal-client", vm.SegComm, 0.5, 0.75)
	r.Segment(1, "opal-server-0", vm.SegCompute, 0.1, 0.9)
	r.Segment(1, "opal-server-0", vm.SegSync, 0.9, 1.0)

	var buf bytes.Buffer
	names := map[int]string{0: "client"}
	if err := WriteChromeTrace(&buf, r, names); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 2 thread_name metadata events + 4 complete events.
	var meta, complete int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Name != "thread_name" {
				t.Fatalf("metadata event named %q", ev.Name)
			}
		case "X":
			complete++
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 2 || complete != 4 {
		t.Fatalf("got %d metadata + %d complete events, want 2 + 4", meta, complete)
	}
	// The explicit name wins; the fallback derives from the recorded name.
	foundClient, foundServer := false, false
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" {
			continue
		}
		switch ev.Args["name"] {
		case "client":
			foundClient = true
		case "opal-server-0 (proc 1)":
			foundServer = true
		}
	}
	if !foundClient || !foundServer {
		t.Fatalf("thread names missing (client=%v server=%v):\n%s", foundClient, foundServer, buf.String())
	}
	// Virtual seconds map to microseconds; kinds become names/categories.
	ev := doc.TraceEvents[meta] // first complete event
	if ev.Name != "compute" || ev.Cat != "compute" || ev.Ts != 0 || ev.Dur != 0.5e6 {
		t.Fatalf("first complete event = %+v", ev)
	}
	// The server's sync span lands at ts=0.9s=9e5us on tid 1.
	last := doc.TraceEvents[len(doc.TraceEvents)-1]
	if last.Name != "sync" || last.Tid != 1 || last.Ts != 0.9e6 {
		t.Fatalf("last complete event = %+v", last)
	}
}

// Flows export as a client-row call span plus a flow-start/flow-finish
// pair, so Perfetto draws an arrow from each call to the server execution
// it waited on.
func TestWriteChromeTraceFlows(t *testing.T) {
	r := NewRecorder()
	r.Segment(0, "client", vm.SegIdle, 0, 1)
	r.Segment(1, "server", vm.SegCompute, 0.2, 0.8)
	r.Flow("nbint", 0, 1, 0.1, 0.9)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			ID   int            `json:"id"`
			Bp   string         `json:"bp"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export invalid: %v\n%s", err, buf.String())
	}
	var call, start, finish bool
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Cat == "rpc":
			call = true
			if ev.Name != "nbint" || ev.Tid != 0 || ev.Ts != 0.1e6 || ev.Dur != 0.8e6 {
				t.Fatalf("call span = %+v", ev)
			}
			if ev.Args["flow"] != 0.0 || ev.Args["server"] != 1.0 {
				t.Fatalf("call span args = %v", ev.Args)
			}
		case ev.Ph == "s":
			start = true
			// Flow ids are offset by one so id 0 survives omitempty.
			if ev.Cat != "flow" || ev.ID != 1 || ev.Tid != 0 || ev.Ts != 0.1e6 {
				t.Fatalf("flow start = %+v", ev)
			}
		case ev.Ph == "f":
			finish = true
			// bp="e" binds the finish to the enclosing server slice.
			if ev.Cat != "flow" || ev.ID != 1 || ev.Tid != 1 || ev.Ts != 0.9e6 || ev.Bp != "e" {
				t.Fatalf("flow finish = %+v", ev)
			}
		}
	}
	if !call || !start || !finish {
		t.Fatalf("flow events missing (call=%v start=%v finish=%v):\n%s",
			call, start, finish, buf.String())
	}
}

func TestWriteChromeTraceEmptyRecorder(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, NewRecorder(), nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty export invalid: %v\n%s", err, buf.String())
	}
	if evs, ok := doc["traceEvents"].([]any); !ok || len(evs) != 0 {
		t.Fatalf("empty recorder should export an empty traceEvents array: %s", buf.String())
	}
}

// TestChromeTraceKinds pins the export's categories: one per segment
// kind, named as the kind prints, so Perfetto queries can select by it.
func TestChromeTraceKinds(t *testing.T) {
	r := NewRecorder()
	for k := 0; k < vm.NumSegKinds; k++ {
		r.Segment(0, "p", vm.SegKind(k), float64(k), float64(k)+1)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct{ Ph, Cat string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var cats []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			cats = append(cats, ev.Cat)
		}
	}
	if len(cats) != vm.NumSegKinds || cats[0] != "compute" || cats[vm.SegRecovery] != "recovery" {
		t.Fatalf("categories = %v", cats)
	}
	for k, c := range cats {
		if c != vm.SegKind(k).String() {
			t.Errorf("kind %d exported as category %q, want %q", k, c, vm.SegKind(k))
		}
	}
}
