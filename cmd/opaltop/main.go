// Command opaltop is the live terminal console of the observability
// plane: it connects to an opal/opald /streamz endpoint and redraws
// fleet state, the per-rank communication heatmap, the busiest links,
// oracle z-scores and control-plane queue pressure as snapshots arrive —
// or replays a JSONL journal / archived run post-hoc.
//
//	opaltop -url http://localhost:9100          live console
//	opaltop -url ... -once                      print one frame, exit
//	opaltop -url ... -snapshot                  one deterministic plain frame (CI golden)
//	opaltop -journal run.jsonl                  replay a journal's end state
//	opaltop -archive DIR [-run ID]              replay an archived run (default: newest)
//
// Zero dependencies beyond the repo: plain text, ANSI clear codes only
// in live mode.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("opaltop", flag.ContinueOnError)
	fs.SetOutput(stderr)
	url := fs.String("url", "", "live /streamz endpoint (e.g. http://localhost:9100/streamz; /streamz is appended to a bare host:port URL)")
	journal := fs.String("journal", "", "replay a JSONL run journal instead of connecting")
	archDir := fs.String("archive", "", "replay a run from this archive directory instead of connecting")
	runID := fs.String("run", "", "run ID to replay from -archive (default: the newest archived run)")
	once := fs.Bool("once", false, "print a single frame and exit instead of redrawing")
	snapshot := fs.Bool("snapshot", false, "print one deterministic plain-text frame (implies -once; omits host-varying lines) — the golden-test/CI mode")
	top := fs.Int("top", 8, "links shown in the top-links table (0 = all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	topLinks = *top
	if *snapshot {
		*once = true
		showGoRow = false
	}

	sources := 0
	for _, s := range []string{*url, *journal, *archDir} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		fmt.Fprintln(stderr, "opaltop: exactly one of -url, -journal or -archive is required")
		fs.Usage()
		return 2
	}

	switch {
	case *journal != "":
		f, err := journalFrame(*journal)
		if err != nil {
			fmt.Fprintf(stderr, "opaltop: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, Render(f))
		return 0
	case *archDir != "":
		f, err := archiveFrame(*archDir, *runID)
		if err != nil {
			fmt.Fprintf(stderr, "opaltop: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, Render(f))
		return 0
	}

	target := normalizeURL(*url)
	if *once {
		f, err := fetchOnce(target)
		if err != nil {
			fmt.Fprintf(stderr, "opaltop: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, Render(f))
		return 0
	}
	err := streamFrames(target, func(f Frame) bool {
		// Clear screen and home the cursor between live frames.
		fmt.Fprint(stdout, "\x1b[2J\x1b[H", Render(f))
		return true
	})
	if err != nil {
		fmt.Fprintf(stderr, "opaltop: %v\n", err)
		return 1
	}
	return 0
}

// normalizeURL appends the /streamz path to a bare endpoint and a
// scheme to a bare host:port.  A "://" names a scheme only before any
// other ':', '/', '?' or '#'.
func normalizeURL(u string) string {
	scheme, rest, ok := strings.Cut(u, "://")
	if !ok || strings.ContainsAny(scheme, ":/?#") {
		u, rest = "http://"+u, u
	}
	// A URL that already names a path (beyond the bare root) is taken
	// verbatim.
	if i := strings.IndexByte(rest, '/'); i < 0 {
		return u + "/streamz"
	} else if rest[i:] == "/" {
		return u + "streamz"
	}
	return u
}
