package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"opalperf/internal/archive"
	"opalperf/internal/telemetry"
)

// goldenFrame is a fully-populated console state with every section:
// metrics rows, the comm matrix with profiles and links, and both
// dedicated extras.
func goldenFrame() Frame {
	return Frame{
		Source: "test",
		StreamSnapshot: telemetry.StreamSnapshot{
			Seq:      7,
			Run:      "golden",
			Health:   "complete",
			HealthOK: true,
			Metrics: map[string]float64{
				"opal_md_steps_total":            8,
				"opal_pvm_messages_sent_total":   120,
				"opal_pvm_bytes_sent_total":      4096,
				"opal_pvm_barriers_total":        9,
				"opal_supervisor_deaths_total":   1,
				"opal_supervisor_respawns_total": 1,
				"opal_md_recoveries_total":       1,
				"opal_md_checkpoints_total":      2,
				"opal_lod_macro_phases_total":    5,
				"opal_go_goroutines":             42, // must NOT render: snapshot mode
			},
			Matrix: &telemetry.MatrixData{
				Ranks: 2,
				Links: []telemetry.MatrixLink{
					{Src: 0, Dst: 1, Msgs: 80, Bytes: 3000, Calls: 40, LatSeconds: 1.25},
					{Src: 1, Dst: 0, Msgs: 40, Bytes: 1096},
				},
				Profiles: []telemetry.RankProfile{
					{Rank: 0, Comp: 1, Comm: 1, Idle: 2},
					{Rank: 1, Comp: 3, Comm: 0.5, Sync: 0.25, Idle: 0.25},
				},
			},
			Extras: map[string]any{
				"ctlplane": map[string]any{
					"queue_depth": 3, "queue_cap": 16, "jobs_running": 2,
					"breaker_open": 0, "draining": false,
				},
				"oracle": map[string]any{
					"windows": 4, "anomalies": 1,
					"z": map[string]any{"comm": 0.5, "comp": -2.25},
				},
			},
		},
	}
}

func TestRenderGolden(t *testing.T) {
	old := showGoRow
	showGoRow = false
	defer func() { showGoRow = old }()

	want := strings.Join([]string{
		"opaltop · source test · run golden · health complete [OK]",
		"fleet: steps 8 · msgs 120 · bytes 4096 · barriers 9",
		"faults: deaths 1 · respawns 1 · recoveries 1 · checkpoints 2",
		"lod: macro 5",
		"",
		"comm matrix · 2 ranks · 2 links · 120 msgs · 4096 bytes",
		"RANK  BUSY                           COMP      COMM      SYNC      IDLE      PACK      RECOVERY",
		"0     [##########----------]  50.0%  1.000000  1.000000  0.000000  2.000000  0.000000  0.000000",
		"1     [###################-]  93.8%  3.000000  0.500000  0.250000  0.250000  0.000000  0.000000",
		"top links (by bytes)",
		"LINK  MSGS  BYTES  CALLS  LAT-S",
		"0→1   80    3000   40     1.250000",
		"1→0   40    1096   0      0.000000",
		"",
		"ctlplane: queue 3/16 · running 2 · breaker 0 · draining false",
		"",
		"oracle: windows 4 · anomalies 1 · z[comm] 0.5 · z[comp] -2.25",
		"",
	}, "\n")
	got := Render(goldenFrame())
	if got != want {
		t.Fatalf("render mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestRenderDegradedShowsDrops(t *testing.T) {
	f := Frame{Source: "stream", StreamSnapshot: telemetry.StreamSnapshot{
		Health: "degraded", HealthOK: false, Dropped: 3,
	}}
	got := Render(f)
	if !strings.Contains(got, "[DEGRADED]") || !strings.Contains(got, "dropped 3") {
		t.Fatalf("degraded frame render:\n%s", got)
	}
}

// TestSnapshotFromLiveStream covers the acceptance path: opaltop
// -snapshot against a live /streamz endpoint prints one deterministic
// frame built from the armed matrix.
func TestSnapshotFromLiveStream(t *testing.T) {
	m := new(telemetry.Matrix)
	telemetry.Attach(&telemetry.Scope{ID: "live", Matrix: m})
	defer telemetry.Attach(nil)
	m.MapRank(100, 0)
	m.MapRank(200, 1)
	m.Record(100, 200, 10, 1000)
	m.Record(200, 100, 5, 50)

	telemetry.SetStreamInterval(5 * time.Millisecond)
	defer telemetry.SetStreamInterval(500 * time.Millisecond)
	bound, stop, err := telemetry.Serve("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	var out, errOut bytes.Buffer
	if code := run([]string{"-url", bound, "-snapshot"}, &out, &errOut); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{
		"opaltop · source stream",
		"comm matrix · 2 ranks · 2 links · 15 msgs · 1050 bytes",
		"0→1   10    1000",
		"1→0   5     50",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("live snapshot missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "goroutines") {
		t.Fatalf("-snapshot must omit host-varying Go runtime rows:\n%s", got)
	}
}

// archived run fixture: the journal lines a supervised run mirrors into
// the archive, ending with the final comm_matrix/rank_profile emission.
var archivedLines = []struct{ typ, line string }{
	{"run_start", `{"run":"r42","type":"run_start"}`},
	{"respawn", `{"run":"r42","type":"respawn","task":"opal-server"}`},
	{"recovery", `{"run":"r42","type":"recovery"}`},
	{"checkpoint", `{"run":"r42","type":"checkpoint","step":4}`},
	{"checkpoint", `{"run":"r42","type":"checkpoint","step":8}`},
	{"comm_matrix", `{"run":"r42","type":"comm_matrix","ranks":2,"links":[{"src":0,"dst":1,"msgs":6,"bytes":600},{"src":1,"dst":0,"msgs":3,"bytes":30}]}`},
	{"rank_profile", `{"run":"r42","type":"rank_profile","ranks":2,"profiles":[{"rank":0,"comp":1,"comm":1,"sync":0,"idle":1,"pack":0,"recovery":0},{"rank":1,"comp":2,"comm":1,"sync":0,"idle":0,"pack":0,"recovery":0}]}`},
	{"run_end", `{"run":"r42","type":"run_end","wall":12.5}`},
}

func buildArchive(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	a, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Unix(1700000000, 0).UTC()
	a.SetClock(func() time.Time { return wall })
	for i, ev := range archivedLines {
		a.MirrorEvent("r42", ev.typ, wall.Add(time.Duration(i)*time.Second), ev.line)
	}
	if err := a.AppendSummary(archive.RunSummary{Run: "r42", Spec: "test", Servers: 1, Steps: 8, Wall: 12.5}); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestSnapshotFromArchive is the other acceptance path: the identical
// deterministic frame out of an archived run, selected by newest
// summary when -run is omitted.
func TestSnapshotFromArchive(t *testing.T) {
	dir := buildArchive(t)
	for _, args := range [][]string{
		{"-archive", dir, "-snapshot"},
		{"-archive", dir, "-run", "r42", "-snapshot"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("run(%v) = %d, stderr: %s", args, code, errOut.String())
		}
		got := out.String()
		for _, want := range []string{
			"opaltop · source archive · run r42 · health complete [OK]",
			"fleet: msgs 9 · bytes 630",
			"faults: deaths 1 · respawns 1 · recoveries 1 · checkpoints 2",
			"comm matrix · 2 ranks · 2 links · 9 msgs · 630 bytes",
			"0→1   6     600",
		} {
			if !strings.Contains(got, want) {
				t.Fatalf("archive snapshot (%v) missing %q:\n%s", args, want, got)
			}
		}
	}
}

func TestSnapshotFromJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	var sb strings.Builder
	for _, ev := range archivedLines {
		sb.WriteString(ev.line)
		sb.WriteString("\n")
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-journal", path, "-snapshot"}, &out, &errOut); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "opaltop · source journal · run r42 · health complete [OK]") ||
		!strings.Contains(got, "comm matrix · 2 ranks · 2 links · 9 msgs · 630 bytes") {
		t.Fatalf("journal snapshot:\n%s", got)
	}
}

func TestRunRequiresExactlyOneSource(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-url", "x", "-journal", "y"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("run(%v) = %d, want 2", args, code)
		}
	}
}

func TestNormalizeURL(t *testing.T) {
	cases := []struct{ in, want string }{
		{"localhost:9100", "http://localhost:9100/streamz"},
		{"http://localhost:9100", "http://localhost:9100/streamz"},
		{"http://localhost:9100/", "http://localhost:9100/streamz"},
		{"http://localhost:9100/streamz", "http://localhost:9100/streamz"},
		{"http://host/custom", "http://host/custom"},
		{"host:9100", "http://host:9100/streamz"},
		{"http://h/", "http://h/streamz"},
		{"http://h/x?y", "http://h/x?y"},
		{"h", "http://h/streamz"},
		{"h/x?u=a://b", "http://h/x?u=a://b"},
		{"h:1/?u=a://b", "http://h:1/?u=a://b"},
	}
	for _, c := range cases {
		if got := normalizeURL(c.in); got != c.want {
			t.Errorf("normalizeURL(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestTopFlagBoundsLinks pins the -top flag: only the N busiest links
// render.
func TestTopFlagBoundsLinks(t *testing.T) {
	old := topLinks
	defer func() { topLinks = old }()
	topLinks = 1
	f := goldenFrame()
	got := Render(f)
	if !strings.Contains(got, "0→1") || strings.Contains(got, "1→0") {
		t.Fatalf("top 1 must keep only the busiest link:\n%s", got)
	}
}
