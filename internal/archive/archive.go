// Package archive is the persistent run warehouse: a crash-safe,
// append-only on-disk store of run telemetry — journal event streams,
// final run summaries and the control plane's cached results — with an
// index keyed by run ID, canonical spec hash, tenant and time, and a
// query layer over it (filtering, percentile aggregation, residual
// drift series, fault-free vs chaos cohort comparison, a rolling
// regression watchdog).
//
// The paper's whole method is longitudinal — calibrate once, then
// compare predicted vs measured across many runs and platforms — so the
// telemetry of a run must outlive its process.  Single-run point
// estimates mislead (Cornebize & Legrand, "Variability Matters"):
// cross-run distributions are the unit of truth, and learned correctors
// (Chennupati et al.) need accumulated corpora to train on.  The
// archive is that substrate.
//
// On-disk format: numbered segment files, each starting with an 8-byte
// magic and holding length-prefixed, CRC-checked JSON records.  The
// active segment has an ".open" suffix and is appended in place; when
// it exceeds the roll threshold it is fsynced and atomically renamed to
// ".seal", and the next segment is created via temp file + fsync +
// atomic rename.  Opening an archive truncates any torn tail of the
// active segment — a writer killed mid-append loses at most the record
// it was writing, never an earlier one.
package archive

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"opalperf/internal/atomicfile"
)

const (
	// segMagic opens every segment file.
	segMagic = "OPALARC1"
	// MaxRecordBytes bounds one record's JSON payload — a corrupt or
	// hostile length prefix cannot make a reader allocate without limit
	// (the same DoS bound readFrame and the checkpoint reader apply).
	MaxRecordBytes = 16 << 20
	// DefaultSegmentBytes is the roll threshold of the active segment.
	DefaultSegmentBytes = 4 << 20
)

// castagnoli is the CRC-32C table every record checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Archive is one open run warehouse rooted at a directory.  All methods
// are safe for concurrent use; the journal mirror and the harness sink
// append from different goroutines.
type Archive struct {
	dir string

	mu         sync.Mutex
	recs       []Record // every valid record, append order
	active     *os.File
	activePath string
	activeSeq  int
	activeSize int64
	segBytes   int64
	clock      func() time.Time
	closed     bool

	truncated int // torn tails truncated on open
	corrupt   int // corrupt records skipped in sealed segments
}

// Open opens (creating if needed) the archive rooted at dir, recovering
// any torn tail left by a crashed writer and building the in-memory
// index from the segment files.
func Open(dir string) (*Archive, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	a := &Archive{dir: dir, segBytes: DefaultSegmentBytes, clock: time.Now}
	if err := a.recover(); err != nil {
		return nil, err
	}
	return a, nil
}

// SetSegmentBytes overrides the active-segment roll threshold (tests use
// tiny segments to exercise rolling; <= 0 restores the default).
func (a *Archive) SetSegmentBytes(n int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n <= 0 {
		n = DefaultSegmentBytes
	}
	a.segBytes = n
}

// SetClock replaces the wall clock stamping records whose Unix field is
// zero (nil restores time.Now).  Deterministic tests pin it so archived
// records — and the opalquery output rendering them — are byte-stable.
func (a *Archive) SetClock(fn func() time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if fn == nil {
		fn = time.Now
	}
	a.clock = fn
}

// Dir returns the archive's root directory.
func (a *Archive) Dir() string { return a.dir }

// Len returns the number of indexed records.
func (a *Archive) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.recs)
}

// Truncated reports how many torn segment tails the last Open truncated.
func (a *Archive) Truncated() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.truncated
}

// Corrupt reports how many sealed-segment records the last Open skipped
// as corrupt (CRC or decode failures past which the segment is ignored).
func (a *Archive) Corrupt() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.corrupt
}

// recover scans the segment files, truncates a torn active tail, and
// leaves the archive ready for appends.  Caller holds no lock (Open).
func (a *Archive) recover() error {
	names, err := filepath.Glob(filepath.Join(a.dir, "seg-*"))
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	type seg struct {
		path string
		seq  int
		open bool
	}
	var segs []seg
	for _, p := range names {
		base := filepath.Base(p)
		var seq int
		switch {
		case strings.HasSuffix(base, ".seal"):
			if _, err := fmt.Sscanf(base, "seg-%06d.seal", &seq); err != nil {
				continue
			}
			segs = append(segs, seg{p, seq, false})
		case strings.HasSuffix(base, ".open"):
			if _, err := fmt.Sscanf(base, "seg-%06d.open", &seq); err != nil {
				continue
			}
			segs = append(segs, seg{p, seq, true})
		case strings.HasSuffix(base, ".tmp"):
			// A roll died between temp-file creation and rename; the
			// half-written successor holds no acknowledged records.
			os.Remove(p)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })

	maxSeq := 0
	for _, s := range segs {
		if s.seq > maxSeq {
			maxSeq = s.seq
		}
		f, err := os.Open(s.path)
		if err != nil {
			return fmt.Errorf("archive: %w", err)
		}
		recs, valid, rerr := ReadSegment(f)
		f.Close()
		a.recs = append(a.recs, recs...)
		if rerr != nil {
			if s.open {
				// The active segment's torn tail is the expected crash
				// residue: drop the partial record, keep everything
				// before it.
				if err := os.Truncate(s.path, valid); err != nil {
					return fmt.Errorf("archive: truncating torn tail of %s: %w", s.path, err)
				}
				a.truncated++
			} else {
				// A sealed segment should never be torn; keep its valid
				// prefix and count the damage rather than refusing to
				// open the warehouse.
				a.corrupt++
			}
		}
		if s.open {
			if a.active != nil {
				// Two .open segments can only come from manual tampering;
				// seal the older one and keep appending to the newest.
				a.sealLocked()
			}
			af, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("archive: %w", err)
			}
			st, err := af.Stat()
			if err != nil {
				af.Close()
				return fmt.Errorf("archive: %w", err)
			}
			a.active, a.activePath, a.activeSeq, a.activeSize = af, s.path, s.seq, st.Size()
		}
	}
	if a.active == nil {
		if err := a.newSegmentLocked(maxSeq + 1); err != nil {
			return err
		}
	}
	return nil
}

// newSegmentLocked creates segment seq via temp file + fsync + atomic
// rename and makes it the active segment.
func (a *Archive) newSegmentLocked(seq int) error {
	tmp := filepath.Join(a.dir, fmt.Sprintf("seg-%06d.tmp", seq))
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	open := filepath.Join(a.dir, fmt.Sprintf("seg-%06d.open", seq))
	if err := atomicfile.Commit(f, open, writeSegMagic); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	af, err := os.OpenFile(open, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	a.active, a.activePath, a.activeSeq, a.activeSize = af, open, seq, int64(len(segMagic))
	return nil
}

// sealLocked fsyncs and closes the active segment and atomically renames
// it from .open to .seal.
func (a *Archive) sealLocked() error {
	if a.active == nil {
		return nil
	}
	if err := a.active.Sync(); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	if err := a.active.Close(); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	sealed := strings.TrimSuffix(a.activePath, ".open") + ".seal"
	if err := os.Rename(a.activePath, sealed); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	atomicfile.SyncDir(a.dir)
	a.active = nil
	return nil
}

// writeSegMagic writes the header every segment file starts with.
func writeSegMagic(w io.Writer) error {
	_, err := io.WriteString(w, segMagic)
	return err
}

// Roll seals the active segment and starts a fresh one — the boundary
// after which the sealed file is immutable.
func (a *Archive) Roll() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rollLocked()
}

func (a *Archive) rollLocked() error {
	seq := a.activeSeq
	if err := a.sealLocked(); err != nil {
		return err
	}
	return a.newSegmentLocked(seq + 1)
}

// Append writes one record to the active segment and indexes it.  A zero
// Unix stamp is filled from the archive clock.  The write is buffered by
// the OS — call Sync (or use AppendSync) when the record must survive a
// host crash; a process kill alone loses nothing once Append returns.
func (a *Archive) Append(rec Record) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.appendLocked(rec)
}

// AppendSync appends and fsyncs — for rare, valuable records (run
// summaries, control-plane results) whose loss would cost a re-run.
func (a *Archive) AppendSync(rec Record) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.appendLocked(rec); err != nil {
		return err
	}
	if a.active == nil {
		return nil
	}
	if err := a.active.Sync(); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	return nil
}

func (a *Archive) appendLocked(rec Record) error {
	if a.closed {
		return fmt.Errorf("archive: append on closed archive")
	}
	if rec.Kind == "" {
		return fmt.Errorf("archive: record needs a kind")
	}
	if rec.Unix == 0 {
		rec.Unix = a.clock().UnixNano()
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("archive: record of %d bytes exceeds the %d byte bound", len(payload), MaxRecordBytes)
	}
	frame := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[8:], payload)
	if _, err := a.active.Write(frame); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	a.activeSize += int64(len(frame))
	a.recs = append(a.recs, rec)
	if a.activeSize >= a.segBytes {
		return a.rollLocked()
	}
	return nil
}

// Sync flushes the active segment to stable storage.
func (a *Archive) Sync() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.active == nil {
		return nil
	}
	if err := a.active.Sync(); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	return nil
}

// Close flushes and closes the active segment.  The archive stays
// readable; further appends fail.
func (a *Archive) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil
	}
	a.closed = true
	if a.active == nil {
		return nil
	}
	if err := a.active.Sync(); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	err := a.active.Close()
	a.active = nil
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	return nil
}

// ReadSegment decodes one segment stream: it returns every valid record,
// the byte offset just past the last valid record, and a non-nil error
// when the stream ends in a torn or corrupt tail (a clean EOF returns a
// nil error).  It never panics on hostile input and never allocates more
// than MaxRecordBytes for one record — the property FuzzArchiveRead pins.
func ReadSegment(r io.Reader) ([]Record, int64, error) {
	br := newByteCounter(r)
	head := make([]byte, len(segMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, 0, fmt.Errorf("archive: segment too short for magic: %w", err)
	}
	if string(head) != segMagic {
		return nil, 0, fmt.Errorf("archive: bad segment magic %q", head)
	}
	var recs []Record
	valid := int64(len(segMagic))
	hdr := make([]byte, 8)
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			if err == io.EOF {
				return recs, valid, nil
			}
			return recs, valid, fmt.Errorf("archive: torn record header at offset %d", valid)
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		want := binary.BigEndian.Uint32(hdr[4:8])
		if n == 0 || n > MaxRecordBytes {
			return recs, valid, fmt.Errorf("archive: implausible record length %d at offset %d", n, valid)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return recs, valid, fmt.Errorf("archive: torn record payload at offset %d", valid)
		}
		if crc32.Checksum(payload, castagnoli) != want {
			return recs, valid, fmt.Errorf("archive: CRC mismatch at offset %d", valid)
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, valid, fmt.Errorf("archive: undecodable record at offset %d: %v", valid, err)
		}
		recs = append(recs, rec)
		valid = br.n
	}
}

// byteCounter counts consumed bytes so ReadSegment can report the exact
// truncation offset.
type byteCounter struct {
	r io.Reader
	n int64
}

func newByteCounter(r io.Reader) *byteCounter { return &byteCounter{r: r} }

func (b *byteCounter) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += int64(n)
	return n, err
}
