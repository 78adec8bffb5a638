// Package trace records classified spans of (virtual or real) execution
// time per process and aggregates them into the detailed execution-time
// breakdowns of the paper's Figures 1 and 2: parallel computation,
// sequential computation, communication, synchronization and idle time.
//
// It is the Go equivalent of the performance instrumentation the authors
// integrated into the Sciddle middleware (Section 3): because the
// middleware is instrumented — rather than an external sampling tool — the
// client/server structure and the accounting barriers are visible to the
// recorder and every second of wall-clock time can be attributed.
package trace

import (
	"fmt"
	"math"
	"sort"

	"opalperf/internal/telemetry"
	"opalperf/internal/vm"
)

// Segment is one classified span of one process's timeline.
type Segment struct {
	Proc  int
	Name  string
	Kind  vm.SegKind
	Start float64
	End   float64
}

// Flow links one client RPC call to its execution on a server: the client
// issues the request at Issue and receives the reply at Reply.  Flows let
// the Chrome exporter draw arrows from call spans to the matching server
// execution spans.
type Flow struct {
	ID     int
	Method string
	Client int
	Server int
	Issue  float64
	Reply  float64
}

// Recorder implements vm.Tracer: it stores every classified span of one
// kernel's processes and every RPC flow, in recording order in pointer-free
// chunks (store.go), for the readers that need intervals: totals over any
// window, the timeline, the Chrome export and the sampler.  A recorder
// belongs to one kernel and is written only by the process holding that
// kernel's execution token, so it takes no lock; read it after the run, or
// from the token holder (the model oracle's step hooks).  A run's own
// measurement window needs none: the kernel sums it
// (vm.Kernel.WindowTotals).
type Recorder struct {
	segs  chunked[segRec]
	flows chunked[flowRec]

	tracks  []track             // interned (proc, name) pairs, first-seen order
	trackID map[trackKey]uint32 // (proc, name) → index into tracks
	dense   []denseTrack        // proc → its latest track, for dense proc ids
	procs   []int               // processes with recorded segments, first-seen order
	procRow map[int]int         // proc → index into procs
	methods interner            // Flow.Method strings

	matrix *telemetry.Matrix // the run's comm matrix, fed per segment; nil: none
}

// SetMatrix feeds every segment recorded from now on into m's per-rank
// profile as well; nil stops it.  The simulated session wires its run's
// matrix in (pvm.SimVM.SetScope).
func (r *Recorder) SetMatrix(m *telemetry.Matrix) { r.matrix = m }

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Segment implements vm.Tracer.
func (r *Recorder) Segment(proc int, name string, kind vm.SegKind, start, end float64) {
	if uint(kind) >= vm.NumSegKinds {
		panic(fmt.Sprintf("trace: segment of unknown kind %d", int(kind)))
	}
	if r.matrix != nil {
		r.matrix.RankSegment(proc, int(kind), end-start)
	}
	*r.segs.next() = segRec{start: start, end: end, track: r.trackOf(proc, name), kind: uint8(kind)}
}

// Len returns the number of recorded segments.
func (r *Recorder) Len() int { return r.segs.n }

// Segments returns a copy of the recorded segments in recording order.
// The result is always non-nil: an empty recorder yields an empty, non-nil
// slice, so callers can range, marshal and append without a nil check.
func (r *Recorder) Segments() []Segment {
	out := make([]Segment, 0, r.segs.n)
	for ci := 0; ci < r.segs.numChunks(); ci++ {
		out = r.appendChunk(out, ci)
	}
	return out
}

// appendChunk appends the segments of storage chunk ci, materialised, to
// dst.
func (r *Recorder) appendChunk(dst []Segment, ci int) []Segment {
	for _, s := range r.segs.filled(ci) {
		t := &r.tracks[s.track]
		dst = append(dst, Segment{Proc: t.proc, Name: t.name, Kind: vm.SegKind(s.kind), Start: s.start, End: s.end})
	}
	return dst
}

// procNames returns the processes with recorded segments in first-seen
// order, each with the name its first segment was recorded under.
func (r *Recorder) procNames() (procs []int, names []string) {
	procs = append(procs, r.procs...)
	names = make([]string, len(procs))
	// A process's first track is the (proc, name) pair of its first
	// segment; walking backwards leaves that one standing.
	for i := len(r.tracks) - 1; i >= 0; i-- {
		names[r.tracks[i].row] = r.tracks[i].name
	}
	return procs, names
}

// Reset discards all recorded segments and flows while retaining the
// chunks and the tables' capacity, so a recorder reused across measurement
// windows (e.g. via md.Options.AfterInit) reaches a steady state where
// recording allocates nothing.  The tracks go too,
// because with them goes the set of processes Procs reports; the method
// names are only a dictionary and stay.
func (r *Recorder) Reset() {
	r.segs.reset()
	r.flows.reset()
	r.tracks = r.tracks[:0]
	clear(r.trackID)
	r.dense = r.dense[:0]
	r.procs = r.procs[:0]
	clear(r.procRow)
}

// Flow records one client→server RPC flow; IDs are assigned in recording
// order.
func (r *Recorder) Flow(method string, client, server int, issue, reply float64) {
	*r.flows.next() = flowRec{
		issue: issue, reply: reply,
		client: client, server: server, method: r.methods.id(method),
	}
}

// Flows returns a copy of the recorded flows in recording order; like
// Segments the result is non-nil.
func (r *Recorder) Flows() []Flow {
	out := make([]Flow, 0, r.flows.n)
	for ci := 0; ci < r.flows.numChunks(); ci++ {
		for _, f := range r.flows.filled(ci) {
			out = append(out, Flow{
				ID: len(out), Method: r.methods.names[f.method],
				Client: f.client, Server: f.server, Issue: f.issue, Reply: f.reply,
			})
		}
	}
	return out
}

// kindTotals is one process's time per segment kind.
type kindTotals = [vm.NumSegKinds]float64

// Totals sums the recorded time per kind for one process.
func (r *Recorder) Totals(proc int) [vm.NumSegKinds]float64 {
	return r.TotalsBetween(proc, math.Inf(-1), math.Inf(1))
}

// TotalsBetween sums the per-kind time of one process clipped to the
// window [t0, t1] — the measurement window of a run, excluding the
// amortized initialization before t0 and the shutdown after t1.
func (r *Recorder) TotalsBetween(proc int, t0, t1 float64) [vm.NumSegKinds]float64 {
	return r.totalsBetween(t0, t1, proc)[0]
}

// totalsBetween is the one reduction behind every per-process total: the
// totals of the requested processes over [t0, t1], in request order (zero
// for a process that recorded nothing), from a single pass over the trace
// in recording order into a per-process × per-kind table.  Each cell
// receives its additions in recording order — the order a pass filtered
// to that one process would add them in, and the order the kernel's
// window sums them in (vm.Kernel.OpenWindow) — so the sums do not depend
// on how many processes are reduced together.
func (r *Recorder) totalsBetween(t0, t1 float64, procs ...int) []kindTotals {
	rows := make([]kindTotals, len(r.procs))
	for ci := 0; ci < r.segs.numChunks(); ci++ {
		for _, s := range r.segs.filled(ci) {
			tot, start, end := &rows[r.tracks[s.track].row], s.start, s.end
			if start < t0 {
				start = t0
			}
			if end > t1 {
				end = t1
			}
			if end > start {
				tot[s.kind] += end - start
			}
		}
	}
	out := make([]kindTotals, len(procs))
	for i, p := range procs {
		if row, ok := r.procRow[p]; ok {
			out[i] = rows[row]
		}
	}
	return out
}

// Procs returns the sorted ids of all processes with recorded segments.
func (r *Recorder) Procs() []int {
	ids := append([]int(nil), r.procs...)
	sort.Ints(ids)
	return ids
}

// Breakdown is the paper's decomposition of the wall-clock execution time,
// t_OPAL = t_par_comp + t_seq_comp + t_comm + t_sync (+ idle), measured
// rather than modelled.  All values are seconds.
type Breakdown struct {
	Wall float64
	// ParComp is the parallel computation time: the mean over the servers
	// of their computing time (the work one server contributes to the
	// critical path when perfectly balanced).
	ParComp float64
	// MaxParComp is the busiest server's computing time; the gap to
	// ParComp is load imbalance and surfaces in Idle.
	MaxParComp float64
	// MinParComp is the least-loaded server's computing time.
	MinParComp float64
	// SeqComp is the client's own computation time.
	SeqComp float64
	// Comm is the total communication time of eq. 6: the client's call
	// transfers plus the servers' return transfers (which serialize
	// through the shared channel while the client waits, so they are
	// disjoint wall-clock spans).
	Comm float64
	// Sync is the client's synchronization time (the accounting barriers).
	Sync float64
	// Recovery is the time spent absorbing injected faults across the
	// client and all servers: retransmissions, crash-recovery windows and
	// straggler delays (vm.SegRecovery).  Exactly zero in fault-free runs.
	Recovery float64
	// Idle is the remainder of the wall clock: the client waiting for
	// servers, which grows with load imbalance.
	Idle float64
	// Servers is the number of server processes aggregated.
	Servers int
}

// ComputeBreakdown aggregates a recorder into the paper's five response
// variables.  clientID identifies the client process; serverIDs the
// servers; wall is the wall-clock time of the run (e.g. kernel.MaxTime()).
func ComputeBreakdown(r *Recorder, clientID int, serverIDs []int, wall float64) Breakdown {
	return ComputeBreakdownBetween(r, clientID, serverIDs, math.Inf(-1), math.Inf(1), wall)
}

// ComputeBreakdownBetween aggregates only the window [t0, t1] of the
// recorded timelines: the simulation phase of a run, excluding start-up
// and shutdown traffic.
func ComputeBreakdownBetween(r *Recorder, clientID int, serverIDs []int, t0, t1, wall float64) Breakdown {
	tot := r.totalsBetween(t0, t1, append([]int{clientID}, serverIDs...)...)
	return BreakdownOf(tot[0], tot[1:], wall)
}

// BreakdownOf aggregates per-kind totals — the client's and each server's,
// over one window — into the paper's five response variables; wall is the
// window's wall-clock time.  The totals come from a recorder
// (ComputeBreakdownBetween) or from the kernel's measurement window
// (vm.Kernel.WindowTotals).
func BreakdownOf(client [vm.NumSegKinds]float64, servers [][vm.NumSegKinds]float64, wall float64) Breakdown {
	b := Breakdown{Wall: wall, Servers: len(servers)}
	b.SeqComp = client[vm.SegCompute] + client[vm.SegOther]
	b.Comm = client[vm.SegComm]
	b.Sync = client[vm.SegSync]
	b.Recovery = client[vm.SegRecovery]
	if len(servers) > 0 {
		b.MinParComp = -1
		var sum float64
		for _, st := range servers {
			c := st[vm.SegCompute] + st[vm.SegOther]
			sum += c
			if c > b.MaxParComp {
				b.MaxParComp = c
			}
			if b.MinParComp < 0 || c < b.MinParComp {
				b.MinParComp = c
			}
			// The servers' reply transfers count as communication (they
			// occupy the shared channel while the client waits).
			b.Comm += st[vm.SegComm]
			// The servers' fault-recovery time is part of the run's
			// recovery cost: the client waits it out on the critical path.
			b.Recovery += st[vm.SegRecovery]
		}
		b.ParComp = sum / float64(len(servers))
		if b.MinParComp < 0 {
			b.MinParComp = 0
		}
	}
	b.Idle = wall - b.ParComp - b.SeqComp - b.Comm - b.Sync - b.Recovery
	if b.Idle < 0 {
		b.Idle = 0
	}
	return b
}

// Imbalance returns the relative load imbalance across servers,
// (max-mean)/mean, the quantity in which the paper's even-server anomaly
// is visible.  Zero when there are no servers or no parallel work.
func (b Breakdown) Imbalance() float64 {
	if b.ParComp <= 0 {
		return 0
	}
	return (b.MaxParComp - b.ParComp) / b.ParComp
}

// Components returns the breakdown in the paper's chart order with labels.
// The five classic components only — the order and shape of the paper's
// Figures 1-2 — so fault-free renderings are unchanged; use
// ComponentsWithRecovery for figures of faulted runs.
func (b Breakdown) Components() ([]string, []float64) {
	return []string{"par comp", "seq comp", "comm", "sync", "idle"},
		[]float64{b.ParComp, b.SeqComp, b.Comm, b.Sync, b.Idle}
}

// ComponentsWithRecovery returns the six-way breakdown including the
// fault-recovery component.
func (b Breakdown) ComponentsWithRecovery() ([]string, []float64) {
	return []string{"par comp", "seq comp", "comm", "sync", "recovery", "idle"},
		[]float64{b.ParComp, b.SeqComp, b.Comm, b.Sync, b.Recovery, b.Idle}
}

// Sum returns the accounted total (which equals Wall up to the clamping of
// negative idle).
func (b Breakdown) Sum() float64 {
	return b.ParComp + b.SeqComp + b.Comm + b.Sync + b.Recovery + b.Idle
}

func (b Breakdown) String() string {
	s := fmt.Sprintf("wall %.3fs = par %.3f + seq %.3f + comm %.3f + sync %.3f + idle %.3f (imbalance %.1f%%)",
		b.Wall, b.ParComp, b.SeqComp, b.Comm, b.Sync, b.Idle, 100*b.Imbalance())
	if b.Recovery != 0 {
		s += fmt.Sprintf(" + recovery %.3f", b.Recovery)
	}
	return s
}
