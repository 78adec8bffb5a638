package trace

import (
	"fmt"
	"sort"
	"strings"

	"opalperf/internal/vm"
)

// Timeline rendering: a Gantt-style text chart of every process's
// classified activity over a time window — the visual counterpart of the
// breakdown aggregation, useful for seeing the phase structure (call,
// compute, barrier, return) and the even-server imbalance directly.

// timelineGlyphs maps segment kinds to chart characters.
var timelineGlyphs = [vm.NumSegKinds]byte{
	vm.SegCompute: '#',
	vm.SegComm:    '=',
	vm.SegSync:    '+',
	vm.SegIdle:    '.',
	vm.SegOther:   'o',
}

// RenderTimeline draws one row per process over [t0, t1], width columns
// wide.  Each column shows the kind that occupied most of its time
// bucket; untracked time is blank.  names maps process ids to labels
// (missing ids get "proc N").
func RenderTimeline(r *Recorder, names map[int]string, t0, t1 float64, width int) string {
	if width <= 0 {
		width = 80
	}
	if t1 <= t0 {
		return ""
	}
	r.mustKeep()
	if len(r.procs) == 0 {
		return ""
	}
	procs := r.Procs()
	dt := (t1 - t0) / float64(width)

	labelW := 0
	label := func(id int) string {
		if n, ok := names[id]; ok {
			return n
		}
		return fmt.Sprintf("proc %d", id)
	}
	for _, id := range procs {
		if l := len(label(id)); l > labelW {
			labelW = l
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%-*s  |%s|\n", labelW, "", timeAxis(t0, t1, width))
	// One pass sorts the window's segments into their process rows; each
	// row is then charged in start order.
	rows := make([][]segRec, len(r.procs))
	for ci := 0; ci < r.segs.numChunks(); ci++ {
		for _, s := range r.segs.filled(ci) {
			if s.end <= t0 || s.start >= t1 {
				continue
			}
			row := r.tracks[s.track].row
			rows[row] = append(rows[row], s)
		}
	}
	for _, id := range procs {
		segs := rows[r.procRow[id]]
		sort.SliceStable(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
		// Accumulate per-bucket occupancy by kind.
		occ := make([][vm.NumSegKinds]float64, width)
		for _, s := range segs {
			lo, hi := s.start, s.end
			if lo < t0 {
				lo = t0
			}
			if hi > t1 {
				hi = t1
			}
			b0 := int((lo - t0) / dt)
			b1 := int((hi - t0) / dt)
			if b1 >= width {
				b1 = width - 1
			}
			for b := b0; b <= b1; b++ {
				blo := t0 + float64(b)*dt
				bhi := blo + dt
				if lo > blo {
					blo = lo
				}
				if hi < bhi {
					bhi = hi
				}
				if bhi > blo {
					occ[b][s.kind] += bhi - blo
				}
			}
		}
		row := make([]byte, width)
		for b := range row {
			best, bestV := -1, 0.0
			for k := 0; k < vm.NumSegKinds; k++ {
				if occ[b][k] > bestV {
					best, bestV = k, occ[b][k]
				}
			}
			if best < 0 {
				row[b] = ' '
			} else {
				row[b] = timelineGlyphs[best]
			}
		}
		fmt.Fprintf(&sb, "%-*s  |%s|\n", labelW, label(id), row)
	}
	fmt.Fprintf(&sb, "%-*s   [#]=compute [=]=comm [+]=sync [.]=idle\n", labelW, "")
	return sb.String()
}

// timeAxis renders tick marks for the header row.
func timeAxis(t0, t1 float64, width int) string {
	axis := make([]byte, width)
	for i := range axis {
		axis[i] = '-'
	}
	stamp := func(pos int, v float64) {
		s := fmt.Sprintf("%.3g", v)
		if pos+len(s) > width {
			pos = width - len(s)
		}
		if pos < 0 {
			pos = 0
		}
		copy(axis[pos:], s)
	}
	stamp(0, t0)
	stamp(width/2, (t0+t1)/2)
	stamp(width-6, t1)
	return string(axis)
}
