package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
)

// The communication matrix: per-(src,dst) message/byte/latency cells and
// per-rank virtual-time profiles, the spatial dimension the fleet-level
// opal_pvm_* aggregates cannot show — which rank talked to which, over
// which link, and where each rank's time went (the paper's comp/comm/
// sync/pack model terms, rank-resolved).
//
// The instrument is armed separately from the metrics plane
// (EnableMatrix): every fabric send — including the level-of-detail
// macro replay, so matrices are bit-identical under -lod — goes through
// RecordSend, which feeds the cell and the aggregate counters together,
// and while disarmed the cell update is one atomic load and a predicted
// branch.
//
// Cells are indexed by *rank*, not task id: MapRank pins a TID to a rank
// slot (the md engine maps the client to rank 0 and server i to rank
// 1+i, and re-maps a healed replacement TID onto the dead server's rank,
// so a replacement inherits its row and column).  Unmapped TIDs are
// assigned the next free rank in order of first appearance.

// matrixSegKinds mirrors vm.NumSegKinds without importing vm (telemetry
// sits below every other internal package).
const matrixSegKinds = 6

// maxMatrixRanks bounds the dense grid: a hostile or buggy TID cannot
// force an unbounded allocation.  Traffic past the cap is dropped.
const maxMatrixRanks = 1024

var matrixOn atomic.Bool

// matrixState is the dense grid.  Cell updates take the read lock and
// use atomics (concurrent fabrics send from many goroutines); growth and
// snapshots take the write lock.
type matrixState struct {
	mu   sync.RWMutex
	n    int         // current rank dimension
	rank map[int]int // tid → rank
	// n*n row-major link cells.
	msgs  []atomic.Uint64
	bytes []atomic.Uint64
	calls []atomic.Uint64 // RPC calls measured on the link
	lat   []atomic.Uint64 // summed RPC latency seconds, float bits
	// n*matrixSegKinds per-rank time profile, float bits.
	prof []atomic.Uint64
}

var matrix = &matrixState{rank: make(map[int]int)}

// EnableMatrix arms or disarms the comm-matrix instrument.  Arming does
// not clear previously accumulated cells; call ResetMatrix for a fresh
// epoch.
func EnableMatrix(on bool) { matrixOn.Store(on) }

// MatrixEnabled reports whether the comm-matrix instrument is armed.
func MatrixEnabled() bool { return matrixOn.Load() }

// ResetMatrix clears every cell, every rank profile and the TID→rank
// mapping — the start of a measurement epoch.
func ResetMatrix() {
	m := matrix
	m.mu.Lock()
	defer m.mu.Unlock()
	m.n = 0
	m.rank = make(map[int]int)
	m.msgs, m.bytes, m.calls, m.lat, m.prof = nil, nil, nil, nil, nil
}

// MapRank pins TID tid to rank — the hook the md engine uses to give the
// client rank 0, server i rank 1+i, and a healed replacement the rank of
// the server it replaces (row/column inheritance).  A no-op while the
// instrument is disarmed or the rank is out of bounds.
func MapRank(tid, rank int) {
	if !matrixOn.Load() || rank < 0 || rank >= maxMatrixRanks {
		return
	}
	m := matrix
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rank[tid] = rank
	if rank >= m.n {
		m.growLocked(rank + 1)
	}
}

// growLocked widens the grid to dimension to, re-indexing the row-major
// cells.  Caller holds the write lock.
func (m *matrixState) growLocked(to int) {
	if to <= m.n {
		return
	}
	msgs := make([]atomic.Uint64, to*to)
	bytes := make([]atomic.Uint64, to*to)
	calls := make([]atomic.Uint64, to*to)
	lat := make([]atomic.Uint64, to*to)
	prof := make([]atomic.Uint64, to*matrixSegKinds)
	for s := 0; s < m.n; s++ {
		for d := 0; d < m.n; d++ {
			old, new := s*m.n+d, s*to+d
			msgs[new].Store(m.msgs[old].Load())
			bytes[new].Store(m.bytes[old].Load())
			calls[new].Store(m.calls[old].Load())
			lat[new].Store(m.lat[old].Load())
		}
		for k := 0; k < matrixSegKinds; k++ {
			prof[s*matrixSegKinds+k].Store(m.prof[s*matrixSegKinds+k].Load())
		}
	}
	m.msgs, m.bytes, m.calls, m.lat, m.prof = msgs, bytes, calls, lat, prof
	m.n = to
}

// ranksLocked resolves both TIDs under the read lock; ok is false when
// either is unmapped (the slow path must assign it).
func (m *matrixState) ranksLocked(src, dst int) (s, d int, ok bool) {
	s, oks := m.rank[src]
	d, okd := m.rank[dst]
	return s, d, oks && okd
}

// ensureRankLocked assigns the next free rank to an unmapped TID.
// Caller holds the write lock.  Returns -1 past the grid cap.
func (m *matrixState) ensureRankLocked(tid int) int {
	if r, ok := m.rank[tid]; ok {
		return r
	}
	r := m.n
	if r >= maxMatrixRanks {
		return -1
	}
	m.growLocked(r + 1)
	m.rank[tid] = r
	return r
}

// RecordSend is the fabrics' one send hook: one message of bytes payload
// bytes from task src to task dst, booked on the opal_pvm_* aggregates
// and on the src→dst matrix cell together, so matrix totals reconcile
// with the counters by construction.
func RecordSend(src, dst int, bytes uint64) {
	PvmMsgsSent.Add(1)
	PvmBytesSent.Add(bytes)
	MatrixRecord(src, dst, 1, bytes)
}

// MatrixRecord accumulates msgs messages and bytes payload bytes on the
// src→dst link.  Near-zero cost while disarmed.
func MatrixRecord(src, dst int, msgs, bytes uint64) {
	if !matrixOn.Load() {
		return
	}
	m := matrix
	m.mu.RLock()
	if s, d, ok := m.ranksLocked(src, dst); ok {
		i := s*m.n + d
		m.msgs[i].Add(msgs)
		m.bytes[i].Add(bytes)
		m.mu.RUnlock()
		return
	}
	m.mu.RUnlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	s, d := m.ensureRankLocked(src), m.ensureRankLocked(dst)
	if s < 0 || d < 0 {
		return
	}
	i := s*m.n + d
	m.msgs[i].Add(msgs)
	m.bytes[i].Add(bytes)
}

// MatrixRecordLatency accumulates one measured RPC on the src→dst link:
// the call count and its end-to-end latency in (virtual) seconds.  The
// sciddle client calls it wherever it observes RPCLatency, on both the
// fine-grained and the macro-replay paths.
func MatrixRecordLatency(src, dst int, seconds float64) {
	if !matrixOn.Load() {
		return
	}
	m := matrix
	m.mu.RLock()
	if s, d, ok := m.ranksLocked(src, dst); ok {
		i := s*m.n + d
		m.calls[i].Add(1)
		addFloatBits(&m.lat[i], seconds)
		m.mu.RUnlock()
		return
	}
	m.mu.RUnlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	s, d := m.ensureRankLocked(src), m.ensureRankLocked(dst)
	if s < 0 || d < 0 {
		return
	}
	i := s*m.n + d
	m.calls[i].Add(1)
	addFloatBits(&m.lat[i], seconds)
}

// RankSegment attributes seconds of classified virtual time (kind is a
// vm.SegKind value) to the rank mapped for TID tid — the per-rank
// comp/comm/sync/pack profile.  The trace recorder calls it for every
// recorded segment while the matrix is armed.
func RankSegment(tid, kind int, seconds float64) {
	if !matrixOn.Load() || kind < 0 || kind >= matrixSegKinds {
		return
	}
	m := matrix
	m.mu.RLock()
	if r, ok := m.rank[tid]; ok {
		addFloatBits(&m.prof[r*matrixSegKinds+kind], seconds)
		m.mu.RUnlock()
		return
	}
	m.mu.RUnlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.ensureRankLocked(tid)
	if r < 0 {
		return
	}
	addFloatBits(&m.prof[r*matrixSegKinds+kind], seconds)
}

// addFloatBits adds v to a float64 stored as bits in an atomic word.
func addFloatBits(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if a.CompareAndSwap(old, next) {
			return
		}
	}
}

// MatrixLink is one non-empty cell of the communication matrix.
type MatrixLink struct {
	Src   int    `json:"src"`
	Dst   int    `json:"dst"`
	Msgs  uint64 `json:"msgs"`
	Bytes uint64 `json:"bytes"`
	// Calls and LatSeconds cover the RPCs measured end-to-end on the
	// link (client-side issue→collect), a subset of Msgs.
	Calls      uint64  `json:"calls,omitempty"`
	LatSeconds float64 `json:"lat_seconds,omitempty"`
}

// RankProfile is one rank's classified virtual-time breakdown, the
// paper's model terms resolved per rank.  Pack is the engine's
// bookkeeping time (vm.SegOther), the t_pack term.
type RankProfile struct {
	Rank     int     `json:"rank"`
	Comp     float64 `json:"comp"`
	Comm     float64 `json:"comm"`
	Sync     float64 `json:"sync"`
	Idle     float64 `json:"idle"`
	Pack     float64 `json:"pack"`
	Recovery float64 `json:"recovery"`
}

// Busy returns the fraction of the rank's accounted time not spent idle.
func (p RankProfile) Busy() float64 {
	total := p.Comp + p.Comm + p.Sync + p.Idle + p.Pack + p.Recovery
	if total <= 0 {
		return 0
	}
	return 1 - p.Idle/total
}

// MatrixData is a point-in-time snapshot of the communication matrix:
// the non-empty links in row-major order and one profile per rank.
type MatrixData struct {
	Ranks    int           `json:"ranks"`
	Links    []MatrixLink  `json:"links"`
	Profiles []RankProfile `json:"profiles,omitempty"`
}

// MatrixSnapshot captures the current matrix.  Deterministic: links are
// emitted in row-major (src, dst) order, profiles in rank order.
func MatrixSnapshot() MatrixData {
	m := matrix
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := MatrixData{Ranks: m.n}
	for s := 0; s < m.n; s++ {
		for d := 0; d < m.n; d++ {
			i := s*m.n + d
			msgs, bytes := m.msgs[i].Load(), m.bytes[i].Load()
			calls, lat := m.calls[i].Load(), math.Float64frombits(m.lat[i].Load())
			if msgs == 0 && bytes == 0 && calls == 0 {
				continue
			}
			out.Links = append(out.Links, MatrixLink{
				Src: s, Dst: d, Msgs: msgs, Bytes: bytes,
				Calls: calls, LatSeconds: lat,
			})
		}
	}
	for r := 0; r < m.n; r++ {
		p := RankProfile{Rank: r}
		p.Comp = math.Float64frombits(m.prof[r*matrixSegKinds+0].Load())
		p.Comm = math.Float64frombits(m.prof[r*matrixSegKinds+1].Load())
		p.Sync = math.Float64frombits(m.prof[r*matrixSegKinds+2].Load())
		p.Idle = math.Float64frombits(m.prof[r*matrixSegKinds+3].Load())
		p.Pack = math.Float64frombits(m.prof[r*matrixSegKinds+4].Load())
		p.Recovery = math.Float64frombits(m.prof[r*matrixSegKinds+5].Load())
		out.Profiles = append(out.Profiles, p)
	}
	return out
}

// MatrixTotals sums every link cell — the numbers that must reconcile
// exactly with the opal_pvm_messages_sent_total / opal_pvm_bytes_sent_total
// deltas over the same epoch.
func MatrixTotals() (msgs, bytes uint64) {
	m := matrix
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i := range m.msgs {
		msgs += m.msgs[i].Load()
		bytes += m.bytes[i].Load()
	}
	return msgs, bytes
}

// matrixEvery is the periodic in-run emission cadence in steps (0: only
// at run end).  The harness consults it from its AfterStep hook.
var matrixEvery atomic.Int64

// SetMatrixEmitEvery asks the harness to emit a comm_matrix/rank_profile
// journal snapshot every n completed steps (0 restores end-of-run only).
func SetMatrixEmitEvery(n int) { matrixEvery.Store(int64(n)) }

// MatrixEmitEvery returns the periodic emission cadence in steps.
func MatrixEmitEvery() int { return int(matrixEvery.Load()) }

// EmitMatrix journals the current matrix as one comm_matrix event and
// one rank_profile event (which the archive mirror warehouses like every
// journal event).  A no-op while the instrument is disarmed or empty.
func EmitMatrix() {
	if !matrixOn.Load() {
		return
	}
	snap := MatrixSnapshot()
	if snap.Ranks == 0 {
		return
	}
	Emit("comm_matrix", F{"ranks": snap.Ranks, "links": snap.Links})
	Emit("rank_profile", F{"ranks": snap.Ranks, "profiles": snap.Profiles})
}
