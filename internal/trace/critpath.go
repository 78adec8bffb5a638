package trace

import (
	"fmt"
	"sort"

	"opalperf/internal/vm"
)

// The critical-path reducer: walks the client's timeline through a window
// and attributes every second of it to one of the paper's model terms.
// The client's own segments classify directly (compute → sequential,
// transfers → communication, barriers → synchronization); the interesting
// case is client *idle* time, which the plain breakdown lumps into one
// bucket.  Here the recorded RPC flows identify which servers the client
// was actually waiting on during each idle span, and the portion of the
// wait during which at least one awaited server was computing is credited
// to the parallel-computation term — the paper's t_par_comp seen from the
// critical path — while the remainder stays idle (in-flight transfers,
// stragglers that finished, scheduling gaps).

// CritPath is the wall-clock blame of one client window, in seconds per
// model term.  Par+Seq+Comm+Sync+Recovery+Idle equals the client's total
// recorded time in the window.
type CritPath struct {
	Par      float64 // client waits covered by awaited-server computation
	Seq      float64 // client's own computation
	Comm     float64 // client transfer time
	Sync     float64 // client barrier time
	Recovery float64 // client fault-recovery time
	Idle     float64 // waits not covered by any awaited server's computation
	Flows    int     // RPC flows overlapping the window
}

// Total returns the attributed client time.
func (c CritPath) Total() float64 {
	return c.Par + c.Seq + c.Comm + c.Sync + c.Recovery + c.Idle
}

func (c CritPath) String() string {
	return fmt.Sprintf("critpath: par %.3f + seq %.3f + comm %.3f + sync %.3f + recovery %.3f + idle %.3f (%d flows)",
		c.Par, c.Seq, c.Comm, c.Sync, c.Recovery, c.Idle, c.Flows)
}

// ComputeCriticalPath attributes the client's timeline in [t0, t1] to the
// model terms using the recorded flows to resolve idle time.
func ComputeCriticalPath(r *Recorder, clientID int, t0, t1 float64) CritPath {
	r.mustKeep()
	var cp CritPath

	// Server compute intervals, clipped to the window, indexed by proc.
	compute := map[int][]ival{}
	for ci := 0; ci < r.segs.numChunks(); ci++ {
		for _, s := range r.segs.filled(ci) {
			proc := r.tracks[s.track].proc
			if proc == clientID || vm.SegKind(s.kind) != vm.SegCompute {
				continue
			}
			if iv, ok := clip(s.start, s.end, t0, t1); ok {
				compute[proc] = append(compute[proc], iv)
			}
		}
	}
	for ci := 0; ci < r.flows.numChunks(); ci++ {
		for _, f := range r.flows.filled(ci) {
			if f.client == clientID && f.issue < t1 && f.reply > t0 {
				cp.Flows++
			}
		}
	}

	scratch := make([]ival, 0, 16)
	for ci := 0; ci < r.segs.numChunks(); ci++ {
		for _, s := range r.segs.filled(ci) {
			if r.tracks[s.track].proc != clientID {
				continue
			}
			iv, ok := clip(s.start, s.end, t0, t1)
			if !ok {
				continue
			}
			d := iv.b - iv.a
			switch vm.SegKind(s.kind) {
			case vm.SegCompute, vm.SegOther:
				cp.Seq += d
			case vm.SegComm:
				cp.Comm += d
			case vm.SegSync:
				cp.Sync += d
			case vm.SegRecovery:
				cp.Recovery += d
			case vm.SegIdle:
				// Which servers was the client waiting on here?  Flows open
				// anywhere in the span name the awaited servers; time where at
				// least one of them computes is parallel work on the critical
				// path.
				scratch = r.awaitedCompute(scratch[:0], compute, clientID, iv)
				covered := unionLen(scratch)
				cp.Par += covered
				cp.Idle += d - covered
			default:
				cp.Idle += d
			}
		}
	}
	return cp
}

// awaitedCompute appends to dst the parts of the client's wait iv during
// which a server it had an open flow to was computing.
func (r *Recorder) awaitedCompute(dst []ival, compute map[int][]ival, clientID int, iv ival) []ival {
	for ci := 0; ci < r.flows.numChunks(); ci++ {
		for _, f := range r.flows.filled(ci) {
			if f.client != clientID || f.issue >= iv.b || f.reply <= iv.a {
				continue
			}
			for _, c := range compute[f.server] {
				if ov, ok := clip(c.a, c.b, maxf(f.issue, iv.a), minf(f.reply, iv.b)); ok {
					dst = append(dst, ov)
				}
			}
		}
	}
	return dst
}

type ival struct{ a, b float64 }

// clip intersects [a, b] with [t0, t1]; ok is false for an empty result.
func clip(a, b, t0, t1 float64) (ival, bool) {
	if a < t0 {
		a = t0
	}
	if b > t1 {
		b = t1
	}
	if b <= a {
		return ival{}, false
	}
	return ival{a, b}, true
}

// unionLen measures the union of the intervals (sorts in place).
func unionLen(ivs []ival) float64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, ivs[0].a, ivs[0].b
	for _, iv := range ivs[1:] {
		if iv.a > curB {
			total += curB - curA
			curA, curB = iv.a, iv.b
			continue
		}
		if iv.b > curB {
			curB = iv.b
		}
	}
	return total + (curB - curA)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
