package main

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"opalperf/internal/archive"
)

// workload is one named set of inputs driven through a front door of the
// system as a closed loop: the single driver goroutine sends op i+1 only
// after op i has answered and been checked.
type workload interface {
	// setup does everything that precedes the first measured op: input
	// generation, golden load, temp dirs, daemon boot and the fixed-count
	// warm-up ops.  Its duration is setup_s.
	setup(seed int64) error
	// op runs and checks the next closed-loop op; spans of the
	// benchmark's own calls go to tr when it is non-nil.
	op(tr *tracer) error
	// pid names the process doing the work: 0 for this one.
	pid() int
	// beginTrace is called as a traced window opens.
	beginTrace() error
	// layers adds the workload's own per-layer metrics (spans, scrapes,
	// exact per-op counts) after a traced window, spending about budget
	// on any timing of its own.
	layers(win *window, tr *tracer, budget time.Duration, out map[string]float64) error
	// ladderSpec is the simulation input the unit-cost ladder takes its
	// arrays from.
	ladderSpec() simSpec
	// teardown releases what setup made; svc-* require a clean exit 0
	// from the daemon after SIGTERM.
	teardown() error
}

const slices = 10

// opSample is one op of a window, as offsets from the window start.
type opSample struct {
	start, end time.Duration
	traced     bool
	failed     bool
}

// window is the raw record of one measured window.
type window struct {
	dur          time.Duration
	ops          []opSample
	cpu          time.Duration // user+sys of the working process over the window
	firstFailure string
}

// runWindow drives w for dur.  With a tracer, a fair coin decides op by op
// whether it carries it: both sides then see the same host drift and the
// same mix of the workload's input cycle, so the difference between them
// is the tracing overhead and nothing else.
func runWindow(w workload, dur time.Duration, tr *tracer) (*window, error) {
	win := &window{dur: dur}
	cpu0, err := cpuTime(w.pid())
	if err != nil {
		return nil, err
	}
	coin := rand.New(rand.NewSource(1))
	t0 := time.Now()
	for i := 0; ; i++ {
		start := time.Since(t0)
		if start >= dur {
			break
		}
		s := opSample{start: start}
		var optr *tracer
		if tr != nil && coin.Intn(2) == 1 {
			s.traced, optr = true, tr
		}
		err := w.op(optr)
		s.end = time.Since(t0)
		if err != nil {
			s.failed = true
			if win.firstFailure == "" {
				win.firstFailure = fmt.Sprintf("op %d: %v", i, err)
				fmt.Fprintf(os.Stderr, "bench: FAILED %s\n", win.firstFailure)
			}
		}
		win.ops = append(win.ops, s)
	}
	cpu1, err := cpuTime(w.pid())
	if err != nil {
		return nil, err
	}
	win.cpu = cpu1 - cpu0
	return win, nil
}

func (win *window) attempted() int { return len(win.ops) }

func (win *window) failed() int {
	n := 0
	for _, s := range win.ops {
		if s.failed {
			n++
		}
	}
	return n
}

// sliceRates splits the window into equal slices and returns each one's
// completion rate in ops per second.  Every successful op is credited to
// the slices its interval overlaps, in proportion: in a closed loop ops
// tile the window, so fractional credit removes the ±1 op quantisation a
// completion count per slice would carry on the slow workloads (~30 ops a
// slice).
func (win *window) sliceRates() []float64 {
	out := make([]float64, slices)
	width := win.dur / slices
	for _, s := range win.ops {
		if s.failed || s.end <= s.start {
			continue
		}
		for k := int(s.start / width); k < slices; k++ {
			lo, hi := time.Duration(k)*width, time.Duration(k+1)*width
			if s.end <= lo {
				break
			}
			out[k] += float64(min(s.end, hi)-max(s.start, lo)) / float64(s.end-s.start) / width.Seconds()
		}
	}
	return out
}

// latenciesMS returns the wall latency of every successful op, in
// milliseconds.
func (win *window) latenciesMS() []float64 {
	var out []float64
	for _, s := range win.ops {
		if s.failed {
			continue
		}
		out = append(out, float64(s.end-s.start)/1e6)
	}
	return out
}

// tracedOverhead is 1 − traced÷untraced throughput of a traced window.
// Each slice gives one ratio of the two sides' rates (ops over the time
// those ops took); the median over the slices is the estimate.
func (win *window) tracedOverhead() float64 {
	width := win.dur / slices
	var busy [slices][2]time.Duration
	var n [slices][2]float64
	for _, s := range win.ops {
		k := int(s.start / width)
		if s.failed || k >= slices {
			continue
		}
		side := 0
		if s.traced {
			side = 1
		}
		busy[k][side] += s.end - s.start
		n[k][side]++
	}
	var ratios []float64
	for k := range busy {
		if n[k][0] == 0 || n[k][1] == 0 {
			continue
		}
		untraced := n[k][0] / busy[k][0].Seconds()
		traced := n[k][1] / busy[k][1].Seconds()
		ratios = append(ratios, traced/untraced)
	}
	if len(ratios) == 0 {
		return 0
	}
	return 1 - median(ratios)
}

// median and percentile use the repository's one nearest-rank rule.
func median(xs []float64) float64 { return archive.Percentile(xs, 50) }

// cpuTime returns the user+system CPU time consumed so far by pid (0 =
// this process).
func cpuTime(pid int) (time.Duration, error) {
	if pid == 0 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0, fmt.Errorf("getrusage: %w", err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(data))
}

// clockTick is the USER_HZ unit of /proc/<pid>/stat times; Linux fixes it
// at 100 for every architecture Go supports.
const clockTick = 10 * time.Millisecond

// parseProcStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line.  The command name (field 2) may contain spaces
// and parentheses, so fields are counted from the last ')'.
func parseProcStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state), so utime and stime are f[11] and f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", stat)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed cpu fields in /proc stat line %q", stat)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSSMB reads VmHWM, the peak resident set, of pid (0 = this process)
// in MB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// endToEndOf folds a window measured with tracing off into the end-to-end
// metrics.
func endToEndOf(win *window, setups []float64) map[string]metric {
	lat := win.latenciesMS()
	m := map[string]metric{
		"setup_s":   {Value: median(setups), Unit: "s", Samples: len(setups)},
		"ops_per_s": {Value: median(win.sliceRates()), Unit: "1/s", Samples: slices},
		"op_p50_ms": {Value: median(lat), Unit: "ms", Samples: len(lat)},
	}
	// The CPU reading brackets every op whole, the last one included.
	if n := len(lat); n > 0 {
		m["cpu_ms_per_op"] = metric{Value: float64(win.cpu) / 1e6 / float64(n), Unit: "ms", Samples: n}
	}
	return m
}
