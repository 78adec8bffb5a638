// Package atomicfile holds the one crash-consistent file-replacement
// sequence shared by the checkpoint writer and the run archive.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Commit fills the freshly created temp file f through write, syncs it to
// stable storage, closes it and atomically renames it to path, then syncs
// path's directory so the rename survives a host crash — a crash at any
// point leaves either the previous file at path or the complete new one,
// never a torn mix.  f must live in path's directory; the caller picks its
// name and mode.  On any failure f is closed and removed.
func Commit(f *os.File, path string, write func(io.Writer) error) error {
	err := write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	SyncDir(filepath.Dir(path))
	return nil
}

// SyncDir fsyncs dir so the renames and removals done in it survive a host
// crash.  Best effort: some filesystems refuse directory fsync.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
