package trace

// Storage of the recorder.  A fault-free comm-bound run records ~58 000
// segments and 6 400 flows, so what one record costs to store is the cost
// of tracing for a caller that keeps them (a window recorder stores only
// what precedes its window).  Records therefore hold no pointers and live in
// fixed-length chunks: a chunk is allocated once, never re-copied when the
// trace grows, sits in a span the garbage collector does not scan, and is
// written without write barriers.  The strings of a Segment or Flow (the
// process name at every vm.Proc call site, the RPC method of a flow — a
// handful per run) are interned in small per-recorder tables and the
// records carry their index.

// chunkLen is the number of records per chunk.
const chunkLen = 4096

// chunked is an append-only sequence of pointer-free records held in
// fixed-length chunks.  Record i lives at chunks[i/chunkLen][i%chunkLen],
// so recording order is storage order.
type chunked[T any] struct {
	chunks []*[chunkLen]T
	n      int
}

// next returns the slot of the next record, allocating a chunk only when
// every chunk kept from before a reset is full.
func (c *chunked[T]) next() *T {
	ci := c.n / chunkLen
	if ci == len(c.chunks) {
		c.chunks = append(c.chunks, new([chunkLen]T))
	}
	slot := &c.chunks[ci][c.n%chunkLen]
	c.n++
	return slot
}

// reset forgets the records and keeps the chunks.
func (c *chunked[T]) reset() { c.n = 0 }

// numChunks is the number of chunks holding at least one record.
func (c *chunked[T]) numChunks() int { return (c.n + chunkLen - 1) / chunkLen }

// filled returns the recorded prefix of chunk ci, for ci < numChunks().
func (c *chunked[T]) filled(ci int) []T {
	return c.chunks[ci][:min(c.n-ci*chunkLen, chunkLen)]
}

// segRec is the stored form of a Segment: 24 bytes, no pointers.
type segRec struct {
	start, end float64
	track      uint32 // index into Recorder.tracks: the (proc, name) pair
	kind       uint8  // a vm.SegKind, checked below NumSegKinds when recorded
}

// flowRec is the stored form of a Flow; its ID is its position.
type flowRec struct {
	issue, reply   float64
	client, server int
	method         uint32 // index into Recorder.methods
}

// trackKey is a (process, name) pair.  Every vm.Proc call site passes the
// process's own name, so a run has about as many distinct pairs — tracks —
// as processes.
type trackKey struct {
	proc int
	name string
}

// track is one interned pair.
type track struct {
	trackKey
	row int // index of proc in Recorder.procs
}

// maxDenseProc bounds the process ids the track lookup indexes directly.
// Kernel ids are dense from zero; a larger id (a network-fabric TID) goes
// through the map.
const maxDenseProc = 1 << 12

// denseTrack is the latest track of one process.  id1 is the track index
// plus one; zero marks an empty entry.
type denseTrack struct {
	name string
	id1  uint32
	row  int
}

// trackOf interns (proc, name) and returns the track and the process's
// row.  Every vm.Proc call site passes the process's own name, so the
// process's latest track, indexed by its id, nearly always answers.
func (r *Recorder) trackOf(proc int, name string) (id uint32, row int) {
	if uint(proc) < uint(len(r.dense)) {
		if e := &r.dense[proc]; e.id1 != 0 && e.name == name {
			return e.id1 - 1, e.row
		}
	}
	return r.trackSlow(proc, name)
}

// trackSlow is trackOf past the dense index: the map, then a new track.
func (r *Recorder) trackSlow(proc int, name string) (uint32, int) {
	key := trackKey{proc, name}
	id, ok := r.trackID[key]
	if !ok {
		id = r.addTrack(key)
	}
	row := r.tracks[id].row
	if uint(proc) < maxDenseProc {
		for len(r.dense) <= proc {
			r.dense = append(r.dense, denseTrack{})
		}
		r.dense[proc] = denseTrack{name, id + 1, row}
	}
	return id, row
}

// addTrack appends a pair seen for the first time, and its process to the
// set of processes seen if it is new too — the set that keeps Procs, the
// window table and the per-process reduction independent of the trace
// length.
func (r *Recorder) addTrack(key trackKey) uint32 {
	if r.trackID == nil {
		r.trackID = map[trackKey]uint32{}
		r.procRow = map[int]int{}
	}
	row, seen := r.procRow[key.proc]
	if !seen {
		row = len(r.procs)
		r.procs = append(r.procs, key.proc)
		r.procRow[key.proc] = row
		r.win.addRow()
	}
	id := uint32(len(r.tracks))
	r.tracks = append(r.tracks, track{key, row})
	r.trackID[key] = id
	return id
}

// interner maps the few distinct strings of a field to dense ids.
type interner struct {
	names  []string
	ids    map[string]uint32
	last   string
	lastID uint32
}

// id returns the index of s in names, adding it on first sight.  Flows of
// one phase share a method, so the previous answer usually still holds.
func (t *interner) id(s string) uint32 {
	if len(t.names) > 0 && s == t.last {
		return t.lastID
	}
	id, ok := t.ids[s]
	if !ok {
		if t.ids == nil {
			t.ids = map[string]uint32{}
		}
		id = uint32(len(t.names))
		t.names = append(t.names, s)
		t.ids[s] = id
	}
	t.last, t.lastID = s, id
	return id
}
