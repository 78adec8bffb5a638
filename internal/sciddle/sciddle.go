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
// The server side is one protocol loop — receive a request, in accounting
// mode arrive at "call", run the handler, arrive at "done", send the
// reply — written once as a state machine (pvm.Reactor) whose steps hold
// the whole request: header, stop handling, run-ahead, handler, barrier
// keys, reply tag and the quit switch.  Serve hands it to pvm.Drive: the
// simulated fabric steps it as a kernel reactor, so a server's wait costs
// no stack switch; any other task drives it by blocking calls.  It is the
// one owner of its request state: a macro-replayed phase (lod.go) takes
// each request through the server's own intake and runs its held call,
// and advances its barrier parity with the client's, so either level of
// detail may run any phase.
//
// That monitoring works because every RPC passes through one instrumented
// place.  The client has a single call path: issue packs the request
// header and arguments, sends, and books the send side; collect waits for
// the reply under the connection's call timeout — resending the same
// request on expiry, failing with a *ServerError once the retries are
// spent — and books the receive side, the call latency and the RPC's flow
// (the comm-matrix latency and the trace record, pvm.ReportFlow).  Call
// (one server) and CallPhasePacked (one SPMD phase over all servers,
// barriers in accounting mode, macro replay when level of detail allows)
// are the only entry points, Close uses the same pair for the shutdown
// handshake, and the macro replay of lod.go books its closed-form
// timeline through the same two helpers.
//
// The handler contract: a handler is a function of its server's state and
// its request, and of its task it may use only the identity (TID, Parent,
// Name, Instance), Charge and SetWorkingSet.  Retries rely on it — a
// resent request must be safe to handle twice — and so does accounting
// mode on the simulated fabric, where the handlers of a phase are
// independent between its two barriers: a server starts its handler on a
// spare core as soon as it holds the request, with its charges recorded,
// and replays them on its own clock where the handler would have run
// (pvm.StartAhead).  A handler that breaks the contract there panics
// with pvm.ErrAheadTask.
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
//
// A handler is a function of its server's state and its request, and of
// its task it may use only the identity, Charge and SetWorkingSet (see
// the package comment).
type Handler func(t pvm.Task, req *pvm.Buffer) *pvm.Buffer

// Service is a set of named handlers exported by a server, the runtime
// equivalent of a Sciddle interface specification.
type Service struct {
	Name    string
	entries []entry // in registration order
}

// entry is one registered method: its name, its handler, and whether the
// handler runs ahead on this server (pvm.Gate).
type entry struct {
	method string
	h      Handler
	gate   pvm.Gate
}

// run calls the handler, substituting the reusable empty buffer *void for
// a void reply.  Resetting it is safe because the client has finished
// with the previous acknowledgement before the server's next handler
// could run.
func (e *entry) run(t pvm.Task, req *pvm.Buffer, void **pvm.Buffer) *pvm.Buffer {
	reply := e.h(t, req)
	if reply == nil {
		if *void == nil {
			*void = pvm.NewBuffer()
		}
		reply = (*void).Reset()
	}
	return reply
}

// NewService creates an empty service.
func NewService(name string) *Service { return &Service{Name: name} }

// Register adds a handler under the given method name.  Registering a
// duplicate name panics: interfaces are static in Sciddle.
func (s *Service) Register(method string, h Handler) {
	for _, e := range s.entries {
		if e.method == method {
			panic(fmt.Sprintf("sciddle: duplicate method %q in service %s", method, s.Name))
		}
	}
	s.entries = append(s.entries, entry{method: method, h: h})
}

// Methods returns the registered method names in registration order.
func (s *Service) Methods() []string {
	names := make([]string, len(s.entries))
	for i, e := range s.entries {
		names[i] = e.method
	}
	return names
}

// entry looks method up; a service exports a handful of methods, so a
// scan finds it.  Calling an unregistered method is a bug in the client,
// interfaces being static.
func (s *Service) entry(method string) *entry {
	for i := range s.entries {
		if s.entries[i].method == method {
			return &s.entries[i]
		}
	}
	panic(fmt.Sprintf("sciddle: service %s has no method %q", s.Name, method))
}

// heldCall is a request a server holds, bound to its method's entry: the
// pvm.Call a handler runs ahead as, and the one macro replay runs.
type heldCall struct {
	e     *entry
	req   *pvm.Buffer
	reply *pvm.Buffer
	void  *pvm.Buffer
}

func (c *heldCall) Run(t pvm.Task) int {
	c.reply = c.e.run(t, c.req, &c.void)
	return c.reply.Bytes()
}

func (c *heldCall) Gate() *pvm.Gate { return &c.e.gate }

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
// the package comment, and on the simulated fabric the handler starts
// ahead as soon as the request is held (pvm.StartAhead): it is claimed
// after the "call" barrier, where it would otherwise run.
//
// The loop is one state machine, driven by pvm.Drive.  On the simulated
// fabric the kernel steps it as a reactor: Serve returns at once, and the
// spawned task's function must return right after it.  Elsewhere Serve
// blocks in the task's own calls until the loop ends.
func Serve(t pvm.Task, svc *Service, opt ServeOptions) {
	if opt.Accounting && opt.Parties < 2 {
		panic("sciddle: accounting mode needs Parties >= 2")
	}
	s := &server{t: t, svc: svc, opt: opt}
	if opt.Quit != nil {
		s.poll = opt.PollInterval
		if s.poll <= 0 {
			s.poll = 25 * time.Millisecond
		}
	}
	pvm.Drive(t, s)
}

// server is one task's Sciddle server protocol as a pvm.Reactor: every
// step of a request — header, stop, run-ahead, handler, phase barriers,
// reply — exists here once, whichever driver runs it.
type server struct {
	t     pvm.Task
	svc   *Service
	opt   ServeOptions
	poll  time.Duration // receive deadline while watching opt.Quit
	at    serveState
	held  heldCall
	phase int
	ahead bool // the held call started ahead (pvm.StartAhead)
	src   int  // the held request's client
	reply int  // the held request's reply tag
}

// serveState is what the server last waited for.
type serveState uint8

const (
	serveListen serveState = iota // a request
	serveCall                     // the "call" barrier
	serveDone                     // the "done" barrier
	serveReply                    // the reply's send
	serveStop                     // the stop acknowledgement's send
)

// Next implements pvm.Reactor.
func (s *server) Next(req *pvm.Buffer, src int) pvm.Wait {
	switch s.at {
	case serveListen:
		if req == nil {
			// The start, or a poll deadline passed.
			return s.listen()
		}
		return s.request(req, src)
	case serveCall:
		if s.ahead {
			pvm.FinishAhead(s.t)
		} else {
			s.held.Run(s.t)
		}
		s.at = serveDone
		return pvm.BarrierWait(barrierKey(s.phase, "done"), s.opt.Parties)
	case serveDone:
		s.phase++
		s.at = serveReply
		return pvm.SendWait(s.src, s.reply, s.held.reply)
	case serveReply:
		return s.listen()
	}
	return pvm.Wait{} // serveStop: acknowledged, leave
}

// listen waits for the next request, unless the quit switch has closed.
// The switch is polled between requests: on the network fabric the poll
// deadline wakes the wait to look again; a simulated receive never
// expires, so there a closed switch is noticed once the next request has
// been served.
func (s *server) listen() pvm.Wait {
	if s.opt.Quit != nil {
		select {
		case <-s.opt.Quit:
			return pvm.Wait{}
		default:
		}
	}
	s.at = serveListen
	return pvm.RecvWait(pvm.AnySrc, tagRequest, s.poll)
}

// request takes delivery of a request from src: a stop is acknowledged,
// with no barriers around shutdown; in accounting mode the call is held,
// started ahead where it may be, until the "call" barrier; otherwise the
// handler runs at once.
func (s *server) request(req *pvm.Buffer, src int) pvm.Wait {
	if s.hold(req, src) {
		s.at = serveStop
		return pvm.SendWait(src, s.reply, pvm.NewBuffer())
	}
	if !s.opt.Accounting {
		s.held.Run(s.t)
		s.at = serveReply
		return pvm.SendWait(src, s.reply, s.held.reply)
	}
	s.ahead = !s.held.e.gate.Inline() && pvm.StartAhead(s.t, &s.held)
	s.at = serveCall
	return pvm.BarrierWait(barrierKey(s.phase, "call"), s.opt.Parties)
}

// hold takes a request from src: its reply tag and, unless it is a stop,
// its method's entry bound to it as the held call.  Every request a
// server handles comes through here, delivered (request) or
// macro-replayed (lod.go).
func (s *server) hold(req *pvm.Buffer, src int) (stop bool) {
	callID, method := unpackHeader(req)
	s.src, s.reply = src, replyTag(callID)
	if method == methodStop {
		return true
	}
	s.held.e, s.held.req = s.svc.entry(method), req
	return false
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
	scope      *telemetry.Scope // the run's telemetry (pvm.ScopeOf)
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
	// Level-of-detail state (see lod.go): macro replay enabled or
	// suspended, the phase counts, the fleet's servers and reusable
	// macro-call scratch.
	lod          bool
	lodSusp      bool
	lodMacro     int       // phases replayed as macro-events on this connection
	lodFallback  int       // phases that wanted macro replay but ran fine-grained
	macroFleet   []int     // fleet macroServers was resolved for
	macroServers []*server // the fleet's servers, as their reactors
	macroCalls   []pvm.MacroCall
	macroTimes   pvm.MacroTimes
}

// Connect builds a connection from a client task to its servers.  The
// connection owns the comm-matrix rank assignment of the run: the client
// is rank 0, server i is rank i+1, and a replacement inherits the rank of
// the server it replaces (ReplaceServer), so its traffic lands in the same
// row and column across a heal.
func Connect(t pvm.Task, servers []int) *Conn {
	c := &Conn{t: t, scope: pvm.ScopeOf(t), servers: append([]int(nil), servers...), stats: make(map[string]*MethodStats)}
	if m := c.scope.Matrix; m != nil {
		m.MapRank(t.TID(), 0)
		for i, tid := range servers {
			m.MapRank(tid, i+1)
		}
	}
	return c
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
	if m := c.scope.Matrix; m != nil {
		m.MapRank(tid, i+1)
	}
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
// latency on the histogram and the RPC's flow.  Fine-grained collection
// and macro replay both report through here, so the two render identical
// statistics.
func (c *Conn) replied(st *MethodStats, tid, bytes int, wait, issued, now float64) {
	st.TReturn += wait
	st.BytesIn += bytes
	st.tBytesIn.Add(uint64(bytes))
	st.tLat.Observe(now - issued)
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
			c.scope.Emit("rpc_server_dead", telemetry.F{
				"method": st.Method, "server": k.index, "tid": k.tid, "attempts": attempt + 1,
			})
			return nil, &ServerError{Server: k.index, TID: k.tid, Err: err}
		}
		t0 = c.t.Now()
		c.t.Send(k.tid, tagRequest, k.req)
		st.TCall += c.t.Now() - t0
		st.Retries++
		st.tRetries.Add(1)
		c.scope.Emit("rpc_retry", telemetry.F{
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
