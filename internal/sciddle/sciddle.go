// Package sciddle reimplements the Sciddle remote-procedure-call
// middleware of Arbenz et al. that the paper's parallel Opal is built on:
// a thin RPC layer over PVM in a single-client / multiple-server setting.
// A client connects to a set of server tasks, each running a Service of
// named handlers; calls pack their arguments into PVM buffers, the server
// stub dispatches to the handler and ships the reply back.
//
// Two aspects the paper contributes are reproduced faithfully:
//
//   - Overlap control (Section 3.3).  In the original Sciddle, requests,
//     server computation and replies overlap freely, which makes the
//     communication, computation and idle times of a phase impossible to
//     separate.  In accounting mode the runtime inserts two PVM barriers
//     per call phase — one after all requests are delivered, one after all
//     handlers finish — trading a small slowdown (the paper measured <5%)
//     for exact attribution.  The barriers "do not actually cause, but
//     merely expose the contention" of single-client/multi-server
//     communication.
//
//   - Middleware-integrated performance monitoring (Section 3.2).  The
//     client connection keeps per-method statistics (call and return
//     times, volumes) and every task carries an hpm.Monitor, so the
//     counters live at the same abstraction level as the RPCs.
//
// That monitoring works because every RPC passes through one instrumented
// place.  The client has a single call path: issue packs the request
// header and arguments, sends, and books the send side; collect waits for
// the reply under the connection's call timeout — resending the same
// request on expiry, failing with a *ServerError once the retries are
// spent — and books the receive side, the call latency, the comm-matrix
// latency and the trace flow.  Call (one server) and CallPhasePacked (one
// SPMD phase over all servers, barriers in accounting mode, macro replay
// when level of detail allows) are the only entry points, Close uses the
// same pair for the shutdown handshake, and the macro replay of lod.go
// books its closed-form timeline through the same two helpers.
package sciddle

import (
	"errors"
	"fmt"
	"time"

	"opalperf/internal/pvm"
	"opalperf/internal/telemetry"
)

// Protocol tags, allocated above the application range.
const (
	tagRequest = pvm.ReservedTagBase + iota
	tagReplyBase
)

// Reserved method names.
const (
	methodStop = "_sciddle_stop"
)

// Handler is one exported server subroutine: it consumes the unpacked
// request buffer and returns the reply buffer (nil for a void reply).
type Handler func(t pvm.Task, req *pvm.Buffer) *pvm.Buffer

// Service is a set of named handlers exported by a server, the runtime
// equivalent of a Sciddle interface specification.
type Service struct {
	Name     string
	handlers map[string]Handler
	order    []string
}

// NewService creates an empty service.
func NewService(name string) *Service {
	return &Service{Name: name, handlers: make(map[string]Handler)}
}

// Register adds a handler under the given method name.  Registering a
// duplicate name panics: interfaces are static in Sciddle.
func (s *Service) Register(method string, h Handler) {
	if _, dup := s.handlers[method]; dup {
		panic(fmt.Sprintf("sciddle: duplicate method %q in service %s", method, s.Name))
	}
	s.handlers[method] = h
	s.order = append(s.order, method)
}

// Methods returns the registered method names in registration order.
func (s *Service) Methods() []string { return append([]string(nil), s.order...) }

// handler looks method up; calling an unregistered method is a bug in the
// client, interfaces being static.
func (s *Service) handler(method string) Handler {
	h := s.handlers[method]
	if h == nil {
		panic(fmt.Sprintf("sciddle: service %s has no method %q", s.Name, method))
	}
	return h
}

// unpackHeader consumes the (call id, method) header that packRequest
// puts in front of every request's arguments.
func unpackHeader(req *pvm.Buffer) (callID int, method string) {
	callID, err := req.UnpackInt()
	if err == nil {
		method, err = req.UnpackString()
	}
	if err != nil {
		panic(fmt.Sprintf("sciddle: malformed request: %v", err))
	}
	return callID, method
}

// ServeOptions configure a server loop.
type ServeOptions struct {
	// Accounting enables the paper's barrier-separated timing mode.  It
	// must match the client's setting.
	Accounting bool
	// Parties is the barrier size (servers + client); required when
	// Accounting is set.
	Parties int
	// Quit, when non-nil, is a cooperative kill switch: the loop polls it
	// between requests and returns once it is closed, without waiting for
	// the client's stop request.  Chaos tests use it to kill live servers
	// (a goroutine cannot be killed from outside).  Polling needs real
	// receive deadlines, which only the network fabric has; on the
	// simulated fabric RecvTimeout never expires, so a closed Quit is
	// noticed only when the next request arrives.
	Quit <-chan struct{}
	// PollInterval is the receive deadline used while watching Quit
	// (default 25ms).
	PollInterval time.Duration
}

// Serve runs the server loop on task t until the client sends a stop
// request, the Quit channel closes, or the session dies.  In accounting
// mode each request is bracketed by the two phase barriers described in
// the package comment.
func Serve(t pvm.Task, svc *Service, opt ServeOptions) {
	if opt.Accounting && opt.Parties < 2 {
		panic("sciddle: accounting mode needs Parties >= 2")
	}
	var voidReply *pvm.Buffer
	phase := 0
	for {
		req, src, ok := serveRecv(t, opt)
		if !ok {
			return
		}
		callID, method := unpackHeader(req)
		if method == methodStop {
			// Acknowledge and leave; no barriers around shutdown.
			t.Send(src, replyTag(callID), pvm.NewBuffer())
			return
		}
		h := svc.handler(method)
		if opt.Accounting {
			t.Barrier(barrierKey(phase, "call"), opt.Parties)
		}
		reply := h(t, req)
		if reply == nil {
			// Void reply: reuse one empty buffer for every acknowledgement.
			// Reset is safe here because the client has finished with the
			// previous acknowledgement before this handler could run again.
			if voidReply == nil {
				voidReply = pvm.NewBuffer()
			}
			reply = voidReply.Reset()
		}
		if opt.Accounting {
			t.Barrier(barrierKey(phase, "done"), opt.Parties)
			phase++
		}
		t.Send(src, replyTag(callID), reply)
	}
}

// serveRecv blocks for the next request, honouring the quit switch.  The
// boolean result is false when the loop should exit: the quit channel
// closed, or the session died under a deadline-aware fabric.
func serveRecv(t pvm.Task, opt ServeOptions) (*pvm.Buffer, int, bool) {
	if opt.Quit == nil {
		b, src, _ := t.Recv(pvm.AnySrc, tagRequest)
		return b, src, true
	}
	poll := opt.PollInterval
	if poll <= 0 {
		poll = 25 * time.Millisecond
	}
	for {
		select {
		case <-opt.Quit:
			return nil, 0, false
		default:
		}
		b, src, _, err := t.RecvTimeout(pvm.AnySrc, tagRequest, poll)
		if err == nil {
			return b, src, true
		}
		if !errors.Is(err, pvm.ErrRecvTimeout) {
			return nil, 0, false
		}
	}
}

func replyTag(callID int) int { return tagReplyBase + 1 + callID }

// Phase barrier keys alternate between two constant pairs instead of
// embedding the phase number, so steady-state phases allocate no key
// strings.  Reuse is safe: a vm barrier is deleted the instant its last
// party arrives, and no party can enter the phase k+2 "call" barrier
// before it has passed the phase k+1 "done" barrier — by which time the
// phase k barriers (the previous users of the same keys) are long gone.
// Client and servers index by the same per-connection phase counter, so
// the parity always agrees.
var phaseKeys = [2][2]string{
	{"sciddle/even/call", "sciddle/even/done"},
	{"sciddle/odd/call", "sciddle/odd/done"},
}

func barrierKey(phase int, point string) string {
	if point == "call" {
		return phaseKeys[phase&1][0]
	}
	return phaseKeys[phase&1][1]
}

// MethodStats aggregates the client-side cost of one method, as the
// instrumented middleware reports it.
type MethodStats struct {
	Method   string
	Calls    int
	Retries  int // idempotent resends after a reply deadline expired
	BytesOut int
	BytesIn  int
	// TCall is client time spent transmitting requests (the t_call terms
	// of eq. 7); TReturn is client time spent in Recv for replies,
	// including waiting (the t_return terms of eqs. 8-9 plus idle).
	TCall   float64
	TReturn float64

	// Cached telemetry handles, resolved once per method at first call so
	// the hot paths skip the vec lookups.  Nil-safe is not needed: stat()
	// always fills them.
	tLat                *telemetry.Histogram
	tRetries, tTimeouts *telemetry.Counter
	tBytesOut, tBytesIn *telemetry.Counter
}

// ServerError reports that one server stopped answering: its reply
// deadline expired through every retry, or the session to it died.  The
// Server index identifies the failed server so a fault-tolerant client
// can drop it and redistribute its work.
type ServerError struct {
	Server int   // index in the connection's server list at failure time
	TID    int   // the server's task id
	Err    error // the underlying transport error
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("sciddle: server %d (tid %d): %v", e.Server, e.TID, e.Err)
}

func (e *ServerError) Unwrap() error { return e.Err }

// Conn is the client side of a Sciddle session: an ordered set of server
// tasks exporting the same service.
type Conn struct {
	t          pvm.Task
	servers    []int
	dropped    []int // TIDs removed by DropServer, stopped best-effort at Close
	seq        int
	phase      int
	accounting bool
	// callTimeout bounds the wait for each reply; callRetries is the
	// number of idempotent resends before the server is declared dead.
	// Zero timeout means wait forever (the classic Sciddle behaviour).
	callTimeout time.Duration
	callRetries int
	stats       map[string]*MethodStats
	statOrder   []string
	// Steady-state scratch of CallPhasePacked: per-server request buffers
	// reset and repacked each phase, plus the issued calls and their replies.
	reqBufs []*pvm.Buffer
	calls   []call
	replies []*pvm.Buffer
	// Level-of-detail state (see lod.go): macro replay enabled, the
	// accounting latch, and reusable macro-call scratch.
	lod          bool
	lodSusp      bool
	macroAcct    bool
	lodMacro     int   // phases replayed as macro-events on this connection
	lodFallback  int   // phases that wanted macro replay but ran fine-grained
	macroFleet   []int // fleet the memoized entries were resolved for
	macroCalls   []pvm.MacroCall
	macroEntries []pvm.DirectEntry
	macroExecs   []func(pvm.Task) int
	macroTimes   pvm.MacroTimes
}

// Connect builds a connection from a client task to its servers.
func Connect(t pvm.Task, servers []int) *Conn {
	return &Conn{t: t, servers: append([]int(nil), servers...), stats: make(map[string]*MethodStats)}
}

// SetAccounting toggles the barrier-separated timing mode.  It must match
// the servers' ServeOptions and be set before the first call.
func (c *Conn) SetAccounting(on bool) {
	if on && (c.callTimeout > 0 || c.callRetries > 0) {
		panic("sciddle: accounting mode is incompatible with call timeouts (a retried call would desynchronize the phase barriers)")
	}
	c.accounting = on
}

// SetCallTimeout bounds every reply wait of Call, CallPhasePacked and
// Close: after d without a reply the request is resent up to retries
// times — safe because Sciddle handlers are pure functions of their
// arguments, so at-least-once delivery cannot corrupt server state — and
// when the last resend times out the call fails with a *ServerError.
// d = 0 restores the classic wait-forever behaviour, in which only a dead
// session fails a call.  Incompatible with accounting mode: a resend
// would enter an extra phase barrier and desynchronize the parties.
//
// On fabrics without real deadlines (simulated, local) replies cannot be
// lost and the timeout never fires, so enabling it there is a no-op —
// which keeps simulated runs deterministic.
func (c *Conn) SetCallTimeout(d time.Duration, retries int) {
	if c.accounting && (d > 0 || retries > 0) {
		panic("sciddle: accounting mode is incompatible with call timeouts (a retried call would desynchronize the phase barriers)")
	}
	if retries < 0 {
		retries = 0
	}
	c.callTimeout = d
	c.callRetries = retries
}

// DropServer removes the server at index i from the connection after it
// has been declared dead.  Subsequent phases run over the survivors, and
// server indices above i shift down by one.  The dropped task — which may
// in fact still be alive if the timeout was a false positive — receives a
// best-effort stop request at Close.  Incompatible with accounting mode,
// whose barrier party counts are fixed at spawn time.
func (c *Conn) DropServer(i int) {
	if c.accounting {
		panic("sciddle: DropServer is incompatible with accounting mode")
	}
	if i < 0 || i >= len(c.servers) {
		panic(fmt.Sprintf("sciddle: server index %d out of range", i))
	}
	c.dropped = append(c.dropped, c.servers[i])
	c.servers = append(c.servers[:i], c.servers[i+1:]...)
}

// ReplaceServer swaps the server at index i for a freshly spawned
// replacement with task id tid.  The old TID is retired to the dropped
// list (it receives a best-effort stop at Close, in case the declared
// death was a timeout false positive) and tid takes over the same index,
// so server indices — and with them any rank-indexed work distribution —
// are preserved across a respawn.  Incompatible with accounting mode,
// like DropServer.
func (c *Conn) ReplaceServer(i, tid int) {
	if c.accounting {
		panic("sciddle: ReplaceServer is incompatible with accounting mode")
	}
	if i < 0 || i >= len(c.servers) {
		panic(fmt.Sprintf("sciddle: server index %d out of range", i))
	}
	c.dropped = append(c.dropped, c.servers[i])
	c.servers[i] = tid
}

// Server returns the TID of the server at index i.
func (c *Conn) Server(i int) int { return c.servers[i] }

// NumServers returns the number of servers.
func (c *Conn) NumServers() int { return len(c.servers) }

func (c *Conn) stat(method string) *MethodStats {
	s := c.stats[method]
	if s == nil {
		s = &MethodStats{
			Method:    method,
			tLat:      telemetry.RPCLatency.With(method),
			tRetries:  telemetry.RPCRetries.With(method),
			tTimeouts: telemetry.RPCTimeouts.With(method),
			tBytesOut: telemetry.RPCBytesOut.With(method),
			tBytesIn:  telemetry.RPCBytesIn.With(method),
		}
		c.stats[method] = s
		c.statOrder = append(c.statOrder, method)
	}
	return s
}

// Stats returns per-method statistics in first-call order.
func (c *Conn) Stats() []*MethodStats {
	out := make([]*MethodStats, 0, len(c.statOrder))
	for _, m := range c.statOrder {
		out = append(out, c.stats[m])
	}
	return out
}

// call is one issued request awaiting its reply.
type call struct {
	index int         // server index at issue time
	tid   int         // the server's task id
	id    int         // call id; selects the reply tag
	req   *pvm.Buffer // retained for idempotent resend
	t0    float64     // issue time, for the call-latency histogram
}

// packRequest starts a request in req: a fresh call id, the (call id,
// method) header every server stub expects, then server i's arguments.
func (c *Conn) packRequest(req *pvm.Buffer, method string, i int, pack func(i int, args *pvm.Buffer)) int {
	id := c.seq
	c.seq++
	req.PackInt(id).PackString(method)
	if pack != nil {
		pack(i, req)
	}
	return id
}

// sent books one transmitted request: dt client seconds inside Send and
// the request volume.
func (st *MethodStats) sent(dt float64, bytes int) {
	st.TCall += dt
	st.Calls++
	st.BytesOut += bytes
	st.tBytesOut.Add(uint64(bytes))
}

// replied books one collected reply from task tid: wait client seconds
// inside the final receive, the reply volume, and the issue-to-collect
// latency on the histogram, the comm matrix and the trace's flow records.
// Fine-grained collection and macro replay both report through here, so
// the two render identical statistics.
func (c *Conn) replied(st *MethodStats, tid, bytes int, wait, issued, now float64) {
	st.TReturn += wait
	st.BytesIn += bytes
	st.tBytesIn.Add(uint64(bytes))
	st.tLat.Observe(now - issued)
	telemetry.MatrixRecordLatency(c.t.TID(), tid, now-issued)
	pvm.ReportFlow(c.t, st.Method, tid, issued, now)
}

// issue packs server i's request into req (see packRequest) and sends it.
func (c *Conn) issue(st *MethodStats, i int, req *pvm.Buffer, pack func(i int, args *pvm.Buffer)) call {
	k := call{index: i, tid: c.servers[i], req: req}
	k.id = c.packRequest(req, st.Method, i, pack)
	k.t0 = c.t.Now()
	c.t.Send(k.tid, tagRequest, req)
	st.sent(c.t.Now()-k.t0, req.Bytes())
	return k
}

// collect waits for k's reply under the call timeout.  When the deadline
// expires the request is resent with the same call id — handlers are
// idempotent and call ids are never reused, so a duplicate reply simply
// lingers unmatched — up to the configured retry count; a server that
// stays silent, or whose session died, yields a *ServerError instead of a
// hang.  With no timeout set the wait is the classic unbounded one.
func (c *Conn) collect(st *MethodStats, k call) (*pvm.Buffer, error) {
	for attempt := 0; ; attempt++ {
		t0 := c.t.Now()
		b, _, _, err := c.t.RecvTimeout(k.tid, replyTag(k.id), c.callTimeout)
		now := c.t.Now()
		if err == nil {
			c.replied(st, k.tid, b.Bytes(), now-t0, k.t0, now)
			return b, nil
		}
		st.TReturn += now - t0
		if errors.Is(err, pvm.ErrRecvTimeout) {
			st.tTimeouts.Add(1)
		}
		if !errors.Is(err, pvm.ErrRecvTimeout) || attempt >= c.callRetries {
			telemetry.Emit("rpc_server_dead", telemetry.F{
				"method": st.Method, "server": k.index, "tid": k.tid, "attempts": attempt + 1,
			})
			return nil, &ServerError{Server: k.index, TID: k.tid, Err: err}
		}
		t0 = c.t.Now()
		c.t.Send(k.tid, tagRequest, k.req)
		st.TCall += c.t.Now() - t0
		st.Retries++
		st.tRetries.Add(1)
		telemetry.Emit("rpc_retry", telemetry.F{
			"method": st.Method, "server": k.index, "tid": k.tid, "attempt": attempt + 1,
		})
	}
}

// Call invokes method on server index i (0-based position in the
// connection's server list) and waits for the reply.  Transport failures
// come back as a *ServerError (see SetCallTimeout).
func (c *Conn) Call(i int, method string, args *pvm.Buffer) (*pvm.Buffer, error) {
	if i < 0 || i >= len(c.servers) {
		panic(fmt.Sprintf("sciddle: server index %d out of range", i))
	}
	var pack func(int, *pvm.Buffer)
	if args != nil {
		pack = func(_ int, req *pvm.Buffer) { appendBuffer(req, args) }
	}
	st := c.stat(method)
	return c.collect(st, c.issue(st, i, pvm.NewBuffer(), pack))
}

// CallPhasePacked performs one SPMD call phase: method is invoked once on
// every server, pack writing server i's arguments directly into a request
// buffer the connection owns and reuses across phases — the
// zero-allocation steady state of the parallel Opal step loop.  pack may
// be nil for argument-free calls.  In overlapped mode the requests are all
// sent before any reply is awaited (the original Sciddle behaviour); in
// accounting mode the two phase barriers separate the request delivery,
// the parallel computation and the reply collection.  With level of
// detail on, the phase is first offered to the macro replay (see lod.go).
// Replies are returned indexed by server.
//
// The first server that stays silent through its retries aborts the
// collection with a *ServerError naming it.  Replies already collected
// are discarded and late replies from the remaining servers linger
// unmatched (call ids are never reused), so the caller may drop the failed
// server and simply redo the phase — Sciddle handlers are idempotent.
//
// Reuse contract: the returned reply buffers are owned by the servers and
// the returned slice by the connection; both are valid only until the
// next call phase.  Repacking a request buffer for phase k+1 is safe
// because the phase protocol is synchronous — every server has unpacked
// its phase-k request before it sends the phase-k reply, and the client
// holds all phase-k replies before starting phase k+1.
func (c *Conn) CallPhasePacked(method string, pack func(i int, args *pvm.Buffer)) ([]*pvm.Buffer, error) {
	if replies, ok := c.tryMacroPhase(method, pack); ok {
		return replies, nil
	}
	c.ensurePhaseScratch()
	st := c.stat(method)
	for i := range c.servers {
		c.calls[i] = c.issue(st, i, c.reqBufs[i].Reset(), pack)
	}
	if c.accounting {
		parties := len(c.servers) + 1
		c.t.Barrier(barrierKey(c.phase, "call"), parties)
		c.t.Barrier(barrierKey(c.phase, "done"), parties)
		c.phase++
	}
	for i, k := range c.calls {
		b, err := c.collect(st, k)
		if err != nil {
			return nil, err
		}
		c.replies[i] = b
	}
	return c.replies, nil
}

// Close sends a stop request to every server and collects the
// acknowledgements; a server dying during shutdown is not an error worth
// reporting.  Servers dropped after a timeout also get a best-effort stop
// — a false-positive drop leaves a live server loop behind, and this lets
// it exit — waited on only as long as the call timeout allows.  The
// connection must not be used afterwards.
func (c *Conn) Close() {
	c.ensurePhaseScratch()
	st := c.stat(methodStop)
	for i := range c.servers {
		c.calls[i] = c.issue(st, i, c.reqBufs[i].Reset(), nil)
	}
	for _, k := range c.calls {
		c.collect(st, k)
	}
	for _, tid := range c.dropped {
		req := pvm.NewBuffer()
		id := c.packRequest(req, methodStop, 0, nil)
		c.t.Send(tid, tagRequest, req)
		if c.callTimeout > 0 {
			c.t.RecvTimeout(tid, replyTag(id), c.callTimeout)
		}
	}
}

// appendBuffer re-packs all items of src onto dst (the stub layer packs
// args into a fresh buffer; the RPC layer prefixes the header).
func appendBuffer(dst, src *pvm.Buffer) {
	r := src.Reader()
	for i := 0; i < src.Items(); i++ {
		if err := r.CopyNext(dst); err != nil {
			panic(err)
		}
	}
}
