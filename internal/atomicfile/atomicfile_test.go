package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func commit(t *testing.T, path string, write func(io.Writer) error) error {
	t.Helper()
	f, err := os.CreateTemp(filepath.Dir(path), "tmp-")
	if err != nil {
		t.Fatal(err)
	}
	return Commit(f, path, write)
}

// A successful commit replaces the file; a failed one leaves the previous
// contents in place; neither leaves its temp file behind.
func TestCommitReplacesOrLeavesIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	for _, s := range []string{"one", "two"} {
		if err := commit(t, path, write(s)); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); string(got) != s {
			t.Fatalf("after commit: %q, want %q", got, s)
		}
	}
	boom := errors.New("boom")
	err := commit(t, path, func(w io.Writer) error {
		io.WriteString(w, "torn")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "two" {
		t.Fatalf("failed commit changed the file to %q", got)
	}
	f, err := os.CreateTemp(dir, "tmp-")
	if err != nil {
		t.Fatal(err)
	}
	if err := Commit(f, filepath.Join(dir, "missing", "state"), write("x")); err == nil {
		t.Fatal("rename into a missing directory succeeded")
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}
