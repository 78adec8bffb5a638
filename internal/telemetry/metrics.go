package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The metrics registry: named counters, gauges and histograms with a
// Prometheus text-format exposition.  All instruments are lock-free on
// the write path and no-ops while the plane is disabled.

// numShards stripes hot counters across cache lines so concurrent fabrics
// (the TCP daemon's per-session goroutines) do not serialize on one word.
const numShards = 8

// paddedUint64 occupies a full cache line to prevent false sharing
// between adjacent shards.
type paddedUint64 struct {
	v atomic.Uint64
	_ [56]byte
}

// shardIdx spreads concurrent writers across shards.  Goroutine stacks
// live in distinct memory regions, so hashing the address of a stack
// variable separates goroutines without any runtime support; the exact
// distribution is irrelevant, only that co-running goroutines rarely
// collide.
func shardIdx() int {
	var marker byte
	p := uintptr(unsafe.Pointer(&marker))
	return int((p >> 10) % numShards)
}

type metric interface {
	metricName() string
	writeProm(w io.Writer)
}

// Registry holds named metrics and renders them in Prometheus text
// format.  Instruments are registered once (typically as package
// variables) and written concurrently with their updates.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	byName  map[string]metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]metric)}
}

// Default is the registry the standard instruments live in and the
// /metrics endpoint serves.
var Default = NewRegistry()

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.metricName()]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", m.metricName()))
	}
	r.byName[m.metricName()] = m
	r.metrics = append(r.metrics, m)
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format, sorted by name, plus an opal_run info metric naming
// the current run (when one is set).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].metricName() < ms[j].metricName() })
	if run := Run(); run != "" {
		fmt.Fprintf(w, "# HELP opal_run The current run identifier.\n# TYPE opal_run gauge\nopal_run{id=\"%s\"} 1\n", promLabelEscape(run))
	}
	for _, m := range ms {
		m.writeProm(w)
	}
}

// valuer is implemented by metrics that can report their current values
// as flat name→value pairs, labels rendered prometheus-style into the
// name: labels is the rendered label set (see family.labels), "" for an
// instrument outside a family.  The streaming plane snapshots the
// registry through it.
type valuer interface {
	values(out map[string]float64, labels string)
}

// Values returns a flat snapshot of every registered metric's current
// value: counters and gauges under their name, vec children as
// `name{label="val"}`, histograms as `name_count` and `name_sum`.
func (r *Registry) Values() map[string]float64 {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	out := make(map[string]float64, 2*len(ms))
	for _, m := range ms {
		if v, ok := m.(valuer); ok {
			v.values(out, "")
		}
	}
	return out
}

// braced wraps a rendered label set in braces; an empty one stays empty.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// promLabelEscaper implements the text-format escaping for label values:
// exactly backslash, double-quote and newline.  Go's %q is not a
// substitute — it also escapes tabs and non-ASCII runes with sequences
// the Prometheus parser rejects.
var promLabelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promHelpEscaper escapes HELP text, where only backslash and newline are
// special (an unescaped newline would terminate the comment mid-text).
var promHelpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// promLabelEscape escapes s for use inside a quoted label value.
func promLabelEscape(s string) string { return promLabelEscaper.Replace(s) }

// promHelpEscape escapes s for use in a # HELP line.
func promHelpEscape(s string) string { return promHelpEscaper.Replace(s) }

// writeHeader renders the # HELP / # TYPE preamble of one metric family —
// always in that order, HELP first, as the exposition format specifies.
func writeHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, promHelpEscape(help), name, typ)
}

// Counter is a monotonically increasing counter, sharded across cache
// lines for concurrent writers.
type Counter struct {
	name, help string
	shards     [numShards]paddedUint64
}

// Counter registers a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.  A no-op while the plane is disabled.
func (c *Counter) Add(n uint64) {
	if !on.Load() {
		return
	}
	c.shards[shardIdx()].v.Add(n)
}

// Value sums the shards.
func (c *Counter) Value() uint64 {
	var t uint64
	for i := range c.shards {
		t += c.shards[i].v.Load()
	}
	return t
}

func (c *Counter) metricName() string { return c.name }

func (c *Counter) writeProm(w io.Writer) {
	writeHeader(w, c.name, c.help, "counter")
	c.writeBody(w, "")
}

func (c *Counter) writeBody(w io.Writer, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", c.name, braced(labels), c.Value())
}

func (c *Counter) values(out map[string]float64, labels string) {
	out[c.name+braced(labels)] = float64(c.Value())
}

// Gauge is a settable instantaneous value (e.g. the supervisor's state).
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Gauge registers a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(g)
	return g
}

// Set stores v.  Unlike counters, gauges record state transitions that
// the /healthz endpoint must see even before the plane is armed, so Set
// is not gated.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) metricName() string { return g.name }

func (g *Gauge) writeProm(w io.Writer) {
	writeHeader(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %d\n", g.name, g.Value())
}

func (g *Gauge) values(out map[string]float64, _ string) { out[g.name] = float64(g.Value()) }

// FGauge is a settable float-valued gauge — the model oracle's residuals
// and fitted machine parameters are seconds and rates, not integers.
// Like Gauge, Set is not gated on the plane switch: oracle windows close
// rarely, and /modelz must reflect the last window even while the
// high-frequency instruments are disarmed.
type FGauge struct {
	name, help string
	bits       atomic.Uint64
}

// FGauge registers a new float gauge.
func (r *Registry) FGauge(name, help string) *FGauge {
	g := &FGauge{name: name, help: help}
	r.register(g)
	return g
}

// Set stores v.
func (g *FGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *FGauge) metricName() string { return g.name }

func (g *FGauge) writeBody(w io.Writer, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", g.name, braced(labels), formatFloat(g.Value()))
}

func (g *FGauge) writeProm(w io.Writer) {
	writeHeader(w, g.name, g.help, "gauge")
	g.writeBody(w, "")
}

func (g *FGauge) values(out map[string]float64, labels string) {
	out[g.name+braced(labels)] = g.Value()
}

// Histogram is a fixed-bucket histogram: cumulative `le` buckets in the
// Prometheus sense, with the bucket boundaries chosen at registration.
// Observations are two atomic operations (bucket increment + sum update).
type Histogram struct {
	name, help string
	bounds     []float64
	counts     []paddedCount // len(bounds)+1; the last is +Inf
	sumBits    atomic.Uint64
}

// paddedCount is a plain atomic counter; histograms are observed from one
// client goroutine at a time, so striping is unnecessary.
type paddedCount struct{ v atomic.Uint64 }

func newHistogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket boundary")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %s boundaries not increasing", name))
		}
	}
	return &Histogram{
		name: name, help: help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]paddedCount, len(bounds)+1),
	}
}

// Histogram registers a new histogram with the given bucket boundaries.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(name, help, bounds)
	r.register(h)
	return h
}

// Observe records one value.  A no-op while the plane is disabled.
func (h *Histogram) Observe(v float64) {
	if !on.Load() {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. the le bucket
	h.counts[i].v.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var t uint64
	for i := range h.counts {
		t += h.counts[i].v.Load()
	}
	return t
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) metricName() string { return h.name }

// writeBody renders buckets/sum/count without the HELP/TYPE header, so a
// HistogramVec shares one header across its children.
func (h *Histogram) writeBody(w io.Writer, labels string) {
	le := "{"
	if labels != "" {
		le += labels + ","
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].v.Load()
		fmt.Fprintf(w, "%s_bucket%sle=%q} %d\n", h.name, le, formatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].v.Load()
	fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", h.name, le, cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", h.name, braced(labels), formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", h.name, braced(labels), cum)
}

func (h *Histogram) writeProm(w io.Writer) {
	writeHeader(w, h.name, h.help, "histogram")
	h.writeBody(w, "")
}

func (h *Histogram) values(out map[string]float64, labels string) {
	out[h.name+"_count"+braced(labels)] = float64(h.Count())
	out[h.name+"_sum"+braced(labels)] = h.Sum()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// member is an instrument a family holds one of per label value: it
// renders its samples under the family's label set, without the header
// the family writes once.
type member interface {
	writeBody(w io.Writer, labels string)
	values(out map[string]float64, labels string)
}

// family is a set of instruments of one kind split by one label (e.g.
// RPC method, fault kind or model term).  Members are created on first use
// and live forever — label cardinality is expected to be small and static
// — and render in label-value order.
type family[T member] struct {
	name, help, typ, label string
	newMember              func() T
	mu                     sync.RWMutex
	members                map[string]T
	order                  []string
}

func newFamily[T member](r *Registry, name, help, typ, label string, newMember func() T) *family[T] {
	f := &family[T]{name: name, help: help, typ: typ, label: label, newMember: newMember, members: make(map[string]T)}
	r.register(f)
	return f
}

// With returns the member for the given label value, creating it on
// first use.  Callers on hot paths should cache the handle.
func (f *family[T]) With(val string) T {
	f.mu.RLock()
	m, ok := f.members[val]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok = f.members[val]; ok {
		return m
	}
	m = f.newMember()
	f.members[val] = m
	f.order = append(f.order, val)
	sort.Strings(f.order)
	return m
}

// labels renders the label set of the member for val.
func (f *family[T]) labels(val string) string {
	return f.label + `="` + promLabelEscape(val) + `"`
}

func (f *family[T]) metricName() string { return f.name }

func (f *family[T]) writeProm(w io.Writer) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	writeHeader(w, f.name, f.help, f.typ)
	for _, val := range f.order {
		f.members[val].writeBody(w, f.labels(val))
	}
}

func (f *family[T]) values(out map[string]float64, _ string) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, val := range f.order {
		f.members[val].values(out, f.labels(val))
	}
}

// CounterVec is a family of counters split by one label.
type CounterVec = family[*Counter]

// CounterVec registers a new counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return newFamily(r, name, help, "counter", label, func() *Counter { return &Counter{name: name, help: help} })
}

// FGaugeVec is a family of float gauges split by one label (e.g. a model
// term or a fitted parameter name).
type FGaugeVec = family[*FGauge]

// FGaugeVec registers a new float gauge family.
func (r *Registry) FGaugeVec(name, help, label string) *FGaugeVec {
	return newFamily(r, name, help, "gauge", label, func() *FGauge { return &FGauge{name: name, help: help} })
}

// HistogramVec is a family of histograms with shared buckets split by one
// label.
type HistogramVec = family[*Histogram]

// HistogramVec registers a new histogram family with shared buckets.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	return newFamily(r, name, help, "histogram", label, func() *Histogram { return newHistogram(name, help, bounds) })
}

// ExpBuckets returns n exponentially spaced boundaries start, start*factor,
// start*factor^2, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("telemetry: ExpBuckets needs start > 0, factor > 1, n > 0")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}
