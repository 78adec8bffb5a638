package archive

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// Crash-safety acceptance: a child process appends records in a tight
// loop, the parent SIGKILLs it mid-append, and the reopened archive must
// hold a contiguous prefix of complete records with any torn tail
// truncated.  The child is this same test binary re-executed with
// OPAL_ARCHIVE_CRASH_CHILD set (the pattern checkpoint and opald smoke
// tests use).

const crashChildEnv = "OPAL_ARCHIVE_CRASH_CHILD"

func TestMain(m *testing.M) {
	if dir := os.Getenv(crashChildEnv); dir != "" {
		crashChildMain(dir)
		return
	}
	os.Exit(m.Run())
}

// crashChildMain appends sequence-numbered records forever; the parent
// kills it.  Every record is fsynced so the parent can assert about the
// on-disk prefix without racing the page cache.
func crashChildMain(dir string) {
	a, err := Open(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	a.segBytes = 4096 // roll often: the kill can land on a roll too
	for i := 0; ; i++ {
		rec := Record{
			Kind: KindEvent,
			Run:  "crash-run",
			Unix: int64(i + 1),
			Data: json.RawMessage(fmt.Sprintf(`{"seq":%d,"pad":%q}`, i, padding(i))),
		}
		if err := a.AppendSync(rec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// Tell the parent the first record landed so the kill always has
		// something to tear.
		if i == 0 {
			fmt.Println("FIRST-RECORD-DURABLE")
		}
	}
}

func padding(i int) string {
	b := make([]byte, 64+(i%128))
	for j := range b {
		b[j] = byte('a' + (i+j)%26)
	}
	return string(b)
}

func TestArchiveSurvivesSIGKILLMidAppend(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec crash test skipped in -short")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(exe)
			cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			// Wait for the first durable record, then let the writer run a
			// little longer so the kill lands somewhere mid-stream.
			buf := make([]byte, 64)
			if _, err := stdout.Read(buf); err != nil {
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatalf("child never reported a durable record: %v", err)
			}
			time.Sleep(time.Duration(10+round*25) * time.Millisecond)
			if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
				t.Fatal(err)
			}
			cmd.Wait()

			a, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen after SIGKILL: %v", err)
			}
			defer a.Close()
			recs := a.Select(Query{Kind: KindEvent, Run: "crash-run"})
			if len(recs) == 0 {
				t.Fatal("no records survived the kill")
			}
			// The surviving records must be the contiguous prefix 0..n-1:
			// AppendSync returned for each, so a gap or reorder would mean
			// recovery dropped an acknowledged record.
			for i, r := range recs {
				var body struct {
					Seq int `json:"seq"`
				}
				if err := json.Unmarshal(r.Data, &body); err != nil {
					t.Fatalf("record %d undecodable: %v", i, err)
				}
				if body.Seq != i {
					t.Fatalf("record %d has seq %d: recovery lost or reordered an acknowledged record", i, body.Seq)
				}
			}
			t.Logf("round %d: %d records survived, truncated=%d", round, len(recs), a.truncated)

			// The recovered archive must accept appends and reopen cleanly.
			if err := a.Append(Record{Kind: KindEvent, Run: "post", Unix: 1, Data: json.RawMessage(strconv.Quote("after crash"))}); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			b, err := Open(dir)
			if err != nil {
				t.Fatalf("second reopen: %v", err)
			}
			b.Close()
		})
	}
}
