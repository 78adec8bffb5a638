package harness

import (
	"errors"
	"fmt"
	"io"
	"os"

	"opalperf/internal/archive"
	"opalperf/internal/telemetry"
)

// Recording is a front end's run journal and, optionally, the run archive
// the journal is mirrored into: what opal and opald wire up from their
// -journal, -flight, -journal-max-bytes and -archive flags, and scenario
// run from its -journal.
type Recording struct {
	Journal *telemetry.Journal
	Archive *archive.Archive // nil without an archive directory
	file    *os.File
}

// StartRecording installs the process's run journal.  It appends JSONL
// events to the file at path ("" keeps the flight ring only), caps the
// file at maxBytes (<= 0: unbounded) and dumps its flight ring of flightN
// events to stderr when a trigger fires.  With a non-empty archiveDir it
// also opens the run archive there and mirrors every journal event into
// it.
func StartRecording(path string, flightN int, maxBytes int64, archiveDir string) (*Recording, error) {
	rec := &Recording{}
	var w io.Writer
	if path != "" {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		rec.file, w = f, f
	}
	rec.Journal = telemetry.StartJournal(w, flightN)
	rec.Journal.SetDumpWriter(os.Stderr)
	if maxBytes > 0 {
		rec.Journal.SetMaxBytes(maxBytes)
	}
	if archiveDir != "" {
		a, err := archive.Open(archiveDir)
		if err != nil {
			rec.Close()
			return nil, fmt.Errorf("cannot open archive: %w", err)
		}
		rec.Archive = a
		rec.Journal.SetMirror(a.MirrorEvent)
	}
	return rec, nil
}

// Close detaches the archive mirror, closes the archive, stops the journal
// and closes its file, in that order: an event emitted meanwhile still
// reaches the journal but skips the closed archive.
func (r *Recording) Close() error {
	var archErr, fileErr error
	if r.Archive != nil {
		r.Journal.SetMirror(nil)
		archErr = r.Archive.Close()
	}
	telemetry.StopJournal()
	if r.file != nil {
		fileErr = r.file.Close()
	}
	return errors.Join(archErr, fileErr)
}
