package telemetry

import (
	"io"
	"runtime"
	"runtime/metrics"
	"strconv"
)

// Go runtime gauges on /metrics: goroutine count, heap bytes, GC cycle
// and pause totals, and the wall time of the last completed GC.  The
// values are sampled at scrape (and snapshot) time via runtime/metrics,
// so the instrument costs nothing between reads.

var runtimeSamples = []metrics.Sample{
	{Name: "/sched/goroutines:goroutines"},
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/pause:cpu-seconds"},
}

// goRuntime is a pseudo-metric that renders a block of gauges from a
// fresh runtime/metrics sample.  It registers once on Default.
type goRuntime struct{}

func init() { Default.register(goRuntime{}) }

func (goRuntime) metricName() string { return "opal_go_gc_cycles_total" }

// sampleRuntime reads the runtime counters into a name→value map.
func sampleRuntime() map[string]float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	out := make(map[string]float64, len(s)+1)
	get := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	out["opal_go_goroutines"] = get(0)
	out["opal_go_heap_bytes"] = get(1)
	out["opal_go_gc_cycles_total"] = get(2)
	out["opal_go_gc_pause_seconds_total"] = get(3)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out["opal_go_last_gc_unix_seconds"] = float64(ms.LastGC) / 1e9
	return out
}

// runtimeOrder fixes the exposition order (WritePrometheus sorts metrics
// by name, but a single pseudo-metric renders its block itself).
var runtimeOrder = []struct{ name, help, typ string }{
	{"opal_go_gc_cycles_total", "Completed GC cycles (runtime/metrics /gc/cycles/total).", "counter"},
	{"opal_go_gc_pause_seconds_total", "Total CPU-seconds spent in GC stop-the-world pauses.", "counter"},
	{"opal_go_goroutines", "Live goroutines.", "gauge"},
	{"opal_go_heap_bytes", "Bytes of live heap objects.", "gauge"},
	{"opal_go_last_gc_unix_seconds", "Wall time of the last completed GC, unix seconds.", "gauge"},
}

func (goRuntime) writeProm(w io.Writer) {
	vals := sampleRuntime()
	for _, m := range runtimeOrder {
		writeHeader(w, m.name, m.help, m.typ)
		io.WriteString(w, m.name)
		io.WriteString(w, " ")
		io.WriteString(w, strconv.FormatFloat(vals[m.name], 'g', -1, 64))
		io.WriteString(w, "\n")
	}
}

func (goRuntime) values(out map[string]float64, _ string) {
	for k, v := range sampleRuntime() {
		out[k] = v
	}
}
