package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateDecoded = flag.Bool("update", false, "rewrite testdata/decoded.golden")

// TestDecodedGolden pins what Parse makes of every checked-in scenario
// document — the corpus, the valid decoder corpus and the CLI's golden
// scenarios — rendered as indented JSON.  Defaults, key spellings and
// value types all show up here, so a decoder rewrite that drifts from
// the one it replaces fails this test.  Refresh with
// `go test ./internal/scenario -run DecodedGolden -update`.
func TestDecodedGolden(t *testing.T) {
	var files []string
	for _, pattern := range []string{"../../scenarios/*.yaml", "testdata/valid/*.yaml", "../../cmd/scenario/testdata/*.yaml"} {
		m, err := filepath.Glob(pattern)
		if err != nil || len(m) == 0 {
			t.Fatalf("%s: no files (%v)", pattern, err)
		}
		files = append(files, m...)
	}
	decoded := map[string]*Spec{}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		decoded[filepath.ToSlash(f)] = spec
	}
	got, err := json.MarshalIndent(decoded, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	const path = "testdata/decoded.golden"
	if *updateDecoded {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("decoded scenarios differ from %s:\n%s", path, got)
	}
}
