package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"opalperf/internal/telemetry"
)

// Frame is one rendered state of the console: a live /streamz snapshot,
// or the replayed end state of a journaled/archived run.
type Frame struct {
	telemetry.StreamSnapshot
	Source string // "stream", "journal" or "archive"
}

// metricRow is one labelled metric in a summary line.
type metricRow struct{ label, name string }

var fleetRows = []metricRow{
	{"steps", "opal_md_steps_total"},
	{"msgs", "opal_pvm_messages_sent_total"},
	{"bytes", "opal_pvm_bytes_sent_total"},
	{"barriers", "opal_pvm_barriers_total"},
}

var faultRows = []metricRow{
	{"deaths", "opal_supervisor_deaths_total"},
	{"respawns", "opal_supervisor_respawns_total"},
	{"recoveries", "opal_md_recoveries_total"},
	{"checkpoints", "opal_md_checkpoints_total"},
}

var lodRows = []metricRow{
	{"macro", "opal_lod_macro_phases_total"},
	{"fallback", "opal_lod_fallback_phases_total"},
}

var goRows = []metricRow{
	{"goroutines", "opal_go_goroutines"},
	{"heap", "opal_go_heap_bytes"},
	{"gc", "opal_go_gc_cycles_total"},
}

// topLinks bounds the links table; flag-settable in main.
var topLinks = 8

// showGoRow gates the Go-runtime line: host-varying values
// (goroutines, heap) are dropped in -snapshot mode so the frame stays
// deterministic.
var showGoRow = true

// Render draws one frame as plain text.  Deterministic: it renders a
// fixed whitelist of metrics (never the whole map), sorts everything it
// iterates, and carries no wall-clock timestamps — the golden-testable
// contract of -snapshot mode.
func Render(f Frame) string {
	var b strings.Builder
	run, health := f.Run, f.Health
	if run == "" {
		run = "-"
	}
	if health == "" {
		health = "-"
	}
	state := "OK"
	if !f.HealthOK {
		state = "DEGRADED"
	}
	fmt.Fprintf(&b, "opaltop · source %s · run %s · health %s [%s]", f.Source, run, health, state)
	if f.Dropped > 0 {
		fmt.Fprintf(&b, " · dropped %d", f.Dropped)
	}
	b.WriteString("\n")
	writeRowLine(&b, "fleet", f.Metrics, fleetRows)
	writeRowLine(&b, "faults", f.Metrics, faultRows)
	writeRowLine(&b, "lod", f.Metrics, lodRows)
	if showGoRow {
		writeRowLine(&b, "go", f.Metrics, goRows)
	}

	if m := f.Matrix; m != nil && m.Ranks > 0 {
		var msgs, bytes uint64
		for _, l := range m.Links {
			msgs += l.Msgs
			bytes += l.Bytes
		}
		fmt.Fprintf(&b, "\ncomm matrix · %d ranks · %d links · %d msgs · %d bytes\n",
			m.Ranks, len(m.Links), msgs, bytes)
		if len(m.Profiles) > 0 {
			w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
			fmt.Fprintln(w, "RANK\tBUSY\t\tCOMP\tCOMM\tSYNC\tIDLE\tPACK\tRECOVERY")
			for _, p := range m.Profiles {
				fmt.Fprintf(w, "%d\t%s\t%.1f%%\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\n",
					p.Rank, bar(p.Busy(), 20), 100*p.Busy(),
					p.Comp, p.Comm, p.Sync, p.Idle, p.Pack, p.Recovery)
			}
			w.Flush()
		}
		links := append([]telemetry.MatrixLink(nil), m.Links...)
		sort.SliceStable(links, func(i, j int) bool { return links[i].Bytes > links[j].Bytes })
		if topLinks > 0 && len(links) > topLinks {
			links = links[:topLinks]
		}
		if len(links) > 0 {
			fmt.Fprintf(&b, "top links (by bytes)\n")
			w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
			fmt.Fprintln(w, "LINK\tMSGS\tBYTES\tCALLS\tLAT-S")
			for _, l := range links {
				fmt.Fprintf(w, "%d→%d\t%d\t%d\t%d\t%.6f\n", l.Src, l.Dst, l.Msgs, l.Bytes, l.Calls, l.LatSeconds)
			}
			w.Flush()
		}
	}

	for _, name := range sortedExtraNames(f.Extras) {
		b.WriteString("\n")
		writeExtra(&b, name, f.Extras[name])
	}
	return b.String()
}

// writeRowLine prints `label: k v · k v` for the whitelist entries
// present in the metrics map; nothing when none are.
func writeRowLine(b *strings.Builder, label string, metrics map[string]float64, rows []metricRow) {
	first := true
	for _, r := range rows {
		v, ok := metrics[r.name]
		if !ok {
			continue
		}
		if first {
			fmt.Fprintf(b, "%s:", label)
			first = false
		} else {
			b.WriteString(" ·")
		}
		fmt.Fprintf(b, " %s %s", r.label, num(v))
	}
	if !first {
		b.WriteString("\n")
	}
}

// bar renders a width-character utilization bar.
func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	full := int(frac*float64(width) + 0.5)
	return "[" + strings.Repeat("#", full) + strings.Repeat("-", width-full) + "]"
}

// num formats a metric value without exponent notation and without a
// trailing fraction for integral values.
func num(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// anyNum formats an extras value (JSON decodes numbers as float64;
// in-process extras may carry Go ints and bools).
func anyNum(v any) string {
	switch x := v.(type) {
	case float64:
		return num(x)
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case uint64:
		return strconv.FormatUint(x, 10)
	case bool:
		return strconv.FormatBool(x)
	case string:
		return x
	default:
		return fmt.Sprint(x)
	}
}

func sortedExtraNames(extras map[string]any) []string {
	names := make([]string, 0, len(extras))
	for n := range extras {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// writeExtra prints one registered stream extra: known shapes (oracle,
// ctlplane) get a dedicated line, everything else a sorted key=value
// dump.
func writeExtra(b *strings.Builder, name string, v any) {
	m, ok := v.(map[string]any)
	if !ok {
		fmt.Fprintf(b, "%s: %s\n", name, anyNum(v))
		return
	}
	switch name {
	case "oracle":
		fmt.Fprintf(b, "oracle: windows %s · anomalies %s", anyNum(m["windows"]), anyNum(m["anomalies"]))
		if z, ok := m["z"].(map[string]any); ok {
			terms := make([]string, 0, len(z))
			for t := range z {
				terms = append(terms, t)
			}
			sort.Strings(terms)
			for _, t := range terms {
				fmt.Fprintf(b, " · z[%s] %s", t, anyNum(z[t]))
			}
		}
		b.WriteString("\n")
	case "ctlplane":
		fmt.Fprintf(b, "ctlplane: queue %s/%s · running %s · draining %s\n",
			anyNum(m["queue_depth"]), anyNum(m["queue_cap"]),
			anyNum(m["jobs_running"]), anyNum(m["draining"]))
	default:
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(b, "%s:", name)
		for i, k := range keys {
			if i > 0 {
				b.WriteString(" ·")
			}
			fmt.Fprintf(b, " %s %s", k, anyNum(m[k]))
		}
		b.WriteString("\n")
	}
}
