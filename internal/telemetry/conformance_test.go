package telemetry

import (
	"strings"
	"testing"
)

// Prometheus text-exposition conformance: the format specifies exactly
// which characters are escaped where (label values: backslash, quote,
// newline; HELP text: backslash, newline — quotes stay literal), that
// every family is announced by # HELP then # TYPE in that order, and the
// registry additionally promises output stable across renders.  The
// golden below pins all of it at once.
func TestPrometheusExpositionGolden(t *testing.T) {
	withEnabled(t)
	prevRun := Run()
	SetRun("")
	t.Cleanup(func() { SetRun(prevRun) })

	r := NewRegistry()
	c := r.Counter("t_conf_events_total", "events with \\ and \"quotes\"\nand a newline")
	c.Add(3)
	cv := r.CounterVec("t_conf_kinds_total", "events by kind", "kind")
	cv.With(`a\b`).Add(1)
	cv.With("nl\nend").Add(3)
	cv.With(`q"uote`).Add(2)
	g := &FGauge{name: "t_conf_level", help: "a float level"}
	r.register(g)
	g.Set(1.5)
	gv := r.FGaugeVec("t_conf_residual_seconds", "residual by term", "term")
	gv.With("comm").Set(-0.25)
	gv.With("par").Set(0.5)

	want := `# HELP t_conf_events_total events with \\ and "quotes"\nand a newline
# TYPE t_conf_events_total counter
t_conf_events_total 3
# HELP t_conf_kinds_total events by kind
# TYPE t_conf_kinds_total counter
t_conf_kinds_total{kind="a\\b"} 1
t_conf_kinds_total{kind="nl\nend"} 3
t_conf_kinds_total{kind="q\"uote"} 2
# HELP t_conf_level a float level
# TYPE t_conf_level gauge
t_conf_level 1.5
# HELP t_conf_residual_seconds residual by term
# TYPE t_conf_residual_seconds gauge
t_conf_residual_seconds{term="comm"} -0.25
t_conf_residual_seconds{term="par"} 0.5
`
	var first strings.Builder
	r.WritePrometheus(&first)
	if first.String() != want {
		t.Fatalf("exposition mismatch:\n got:\n%s\nwant:\n%s", first.String(), want)
	}
	// Rendering is a pure read: a second pass is byte-identical.
	var second strings.Builder
	r.WritePrometheus(&second)
	if second.String() != first.String() {
		t.Fatalf("exposition not stable across renders:\n%s\nvs\n%s", first.String(), second.String())
	}
}

// Label escaping must not touch characters the format treats as literal
// (tabs, unicode) — the trap %q-based escaping falls into.
func TestPromLabelEscapeLeavesLiteralsAlone(t *testing.T) {
	for in, want := range map[string]string{
		"plain":      "plain",
		"tab\there":  "tab\there",
		"unicode µs": "unicode µs",
		`back\slash`: `back\\slash`,
		`qu"ote`:     `qu\"ote`,
		"new\nline":  `new\nline`,
	} {
		if got := promLabelEscape(in); got != want {
			t.Errorf("promLabelEscape(%q) = %q, want %q", in, got, want)
		}
	}
	// HELP escaping leaves quotes literal.
	if got := promHelpEscape("a \"b\"\nc\\d"); got != `a "b"\nc\\d` {
		t.Errorf("promHelpEscape = %q", got)
	}
}

func TestFGaugeSetValue(t *testing.T) {
	r := NewRegistry()
	g := &FGauge{name: "t_fg", help: "x"}
	if g.Value() != 0 {
		t.Fatalf("zero value = %g", g.Value())
	}
	// FGauge.Set is deliberately not gated on the plane switch: oracle
	// windows are rare and /modelz must reflect the last one regardless.
	SetEnabled(false)
	g.Set(-3.25)
	if g.Value() != -3.25 {
		t.Fatalf("value = %g, want -3.25", g.Value())
	}
	v := r.FGaugeVec("t_fgv", "x", "term")
	if v.With("par") != v.With("par") {
		t.Fatal("FGaugeVec.With should return a stable child handle")
	}
	v.With("par").Set(7)
	if v.With("par").Value() != 7 {
		t.Fatalf("vec child value = %g", v.With("par").Value())
	}
}
