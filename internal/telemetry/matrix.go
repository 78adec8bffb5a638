package telemetry

import "sync"

// The communication matrix: per-(src,dst) message/byte/latency cells and
// per-rank virtual-time profiles, the spatial dimension the fleet-level
// opal_pvm_* aggregates cannot show — which rank talked to which, over
// which link, and where each rank's time went (the paper's comp/comm/
// sync/pack model terms, rank-resolved).
//
// A matrix belongs to one run (Scope.Matrix); a run without one records
// nothing.  Every send of the simulated fabric — including the
// level-of-detail macro replay, so matrices are bit-identical under -lod —
// goes through RecordSend, which feeds the cell and the aggregate counters
// together.
//
// Cells are indexed by *rank*, not task id: MapRank pins a TID to a rank
// slot (the Sciddle connection maps the client to rank 0 and server i to
// rank 1+i, and re-maps a healed replacement TID onto the dead server's
// rank, so a replacement inherits its row and column).  Unmapped TIDs are
// assigned the next free rank in order of first appearance.

// matrixSegKinds mirrors vm.NumSegKinds without importing vm (telemetry
// sits below every other internal package).
const matrixSegKinds = 6

// maxMatrixRanks bounds the dense grid: a hostile or buggy TID cannot
// force an unbounded allocation.  Traffic past the cap is dropped.
const maxMatrixRanks = 1024

// Matrix is one run's comm matrix.  The zero value is empty and ready to
// record.  The run records from one goroutine at a time; the mutex is for
// readers on others (the /streamz hub snapshots a live run's matrix).
type Matrix struct {
	mu    sync.Mutex
	n     int         // current rank dimension
	rank  map[int]int // tid → rank
	cells []cell      // n*n row-major links
	prof  []float64   // n*matrixSegKinds per-rank time profile
}

// cell is one src→dst link.
type cell struct {
	msgs, bytes, calls uint64  // calls: RPCs measured on the link
	lat                float64 // their summed latency seconds
}

// MapRank pins TID tid to rank — the hook the Sciddle connection uses to
// give the client rank 0, server i rank 1+i, and a healed replacement the
// rank of the server it replaces (row/column inheritance).  A rank out of
// bounds is ignored.
func (m *Matrix) MapRank(tid, rank int) {
	if rank < 0 || rank >= maxMatrixRanks {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.setRank(tid, rank)
}

// setRank maps tid to rank, widening the grid to hold it.  Caller holds mu.
func (m *Matrix) setRank(tid, rank int) {
	if m.rank == nil {
		m.rank = make(map[int]int)
	}
	m.rank[tid] = rank
	if rank < m.n {
		return
	}
	to := rank + 1
	cells := make([]cell, to*to)
	for s := 0; s < m.n; s++ {
		copy(cells[s*to:], m.cells[s*m.n:(s+1)*m.n])
	}
	m.cells = cells
	m.prof = append(m.prof, make([]float64, (to-m.n)*matrixSegKinds)...)
	m.n = to
}

// rankOf resolves tid, assigning the next free rank to an unmapped one;
// -1 past the grid cap.  Caller holds mu.
func (m *Matrix) rankOf(tid int) int {
	if r, ok := m.rank[tid]; ok {
		return r
	}
	if m.n >= maxMatrixRanks {
		return -1
	}
	r := m.n
	m.setRank(tid, r)
	return r
}

// link returns the src→dst cell, or nil past the grid cap.  Caller holds
// mu.
func (m *Matrix) link(src, dst int) *cell {
	s, d := m.rankOf(src), m.rankOf(dst)
	if s < 0 || d < 0 {
		return nil
	}
	return &m.cells[s*m.n+d]
}

// RecordSend is the fabrics' one send hook: one message of bytes payload
// bytes from task src to task dst, booked on the opal_pvm_* aggregates
// and, when the run has a matrix, on its src→dst cell together, so matrix
// totals reconcile with the counters by construction.
func RecordSend(m *Matrix, src, dst int, bytes uint64) {
	PvmMsgsSent.Add(1)
	PvmBytesSent.Add(bytes)
	if m != nil {
		m.Record(src, dst, 1, bytes)
	}
}

// Record accumulates msgs messages and bytes payload bytes on the src→dst
// link.
func (m *Matrix) Record(src, dst int, msgs, bytes uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.link(src, dst); c != nil {
		c.msgs += msgs
		c.bytes += bytes
	}
}

// RecordLatency accumulates one measured RPC on the src→dst link: the
// call count and its end-to-end latency in (virtual) seconds.  The
// simulated fabric's flow hook (pvm.ReportFlow) calls it for every reply
// the Sciddle client collects, fine-grained or macro-replayed.
func (m *Matrix) RecordLatency(src, dst int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.link(src, dst); c != nil {
		c.calls++
		c.lat += seconds
	}
}

// RankSegment attributes seconds of classified virtual time (kind is a
// vm.SegKind value) to the rank mapped for TID tid — the per-rank
// comp/comm/sync/pack profile.  The run's trace recorder calls it for
// every recorded segment.
func (m *Matrix) RankSegment(tid, kind int, seconds float64) {
	if kind < 0 || kind >= matrixSegKinds {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if r := m.rankOf(tid); r >= 0 {
		m.prof[r*matrixSegKinds+kind] += seconds
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

// Snapshot captures the matrix.  Deterministic: links are emitted in
// row-major (src, dst) order, profiles in rank order.
func (m *Matrix) Snapshot() MatrixData {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := MatrixData{Ranks: m.n}
	for i, c := range m.cells {
		if c.msgs == 0 && c.bytes == 0 && c.calls == 0 {
			continue
		}
		out.Links = append(out.Links, MatrixLink{
			Src: i / m.n, Dst: i % m.n, Msgs: c.msgs, Bytes: c.bytes,
			Calls: c.calls, LatSeconds: c.lat,
		})
	}
	for r := 0; r < m.n; r++ {
		p := m.prof[r*matrixSegKinds:]
		out.Profiles = append(out.Profiles, RankProfile{
			Rank: r, Comp: p[0], Comm: p[1], Sync: p[2], Idle: p[3], Pack: p[4], Recovery: p[5],
		})
	}
	return out
}

// Totals sums every link cell — the numbers that must reconcile exactly
// with the opal_pvm_messages_sent_total / opal_pvm_bytes_sent_total deltas
// over the same run.
func (m *Matrix) Totals() (msgs, bytes uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.cells {
		msgs += c.msgs
		bytes += c.bytes
	}
	return msgs, bytes
}

// EmitMatrix journals the run's matrix as one comm_matrix event and one
// rank_profile event (which the archive mirror warehouses like every
// journal event).  A no-op for a run without a matrix or with an empty
// one.
func (s *Scope) EmitMatrix() {
	if s.Matrix == nil {
		return
	}
	snap := s.Matrix.Snapshot()
	if snap.Ranks == 0 {
		return
	}
	s.Emit("comm_matrix", F{"ranks": snap.Ranks, "links": snap.Links})
	s.Emit("rank_profile", F{"ranks": snap.Ranks, "profiles": snap.Profiles})
}
