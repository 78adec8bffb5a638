package pvm

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"time"

	"opalperf/internal/hpm"
	"opalperf/internal/telemetry"
)

// The network fabric: a PVM-style daemon routes messages between task
// sessions connected over TCP, the way the pvmd routed messages between
// the hosts of a cluster (the "network PVM" the paper's J90s used over
// HIPPI, and the CoPs over Ethernet or Myrinet).
//
// Each session owns a dense range of task ids (sessionID*sessionStride +
// k), so the daemon routes on dst/sessionStride without round trips.
// Barriers are counted centrally; spawns-by-name are forwarded to a
// session that registered a handler for the name, mirroring pvm_spawn's
// executable names.

const sessionStride = 1 << 16

// ErrTaskRange is the failure of a spawn that would run past the
// sessionStride task ids its session owns, into the next session's range.
// Both the local spawn and a spawn forwarded from another session refuse
// it whole, starting no task; the requester's Spawn panics with an error
// wrapping it.
var ErrTaskRange = errors.New("pvm: spawn past the session's task-id range")

// spawnRefused is the count of a spawn reply whose host refused the spawn.
const spawnRefused = 1<<32 - 1

// maxForwardedSpawn bounds the tasks one forwarded spawn may start on its
// host session: each is a goroutine, and the count comes from a peer's
// frame.  It is 16 times opald's default -max-servers.
const maxForwardedSpawn = 1024

// spawnReply is what a session's Spawn learns from the daemon: the TIDs
// started remotely, none (spawn locally), or a refusal.
type spawnReply struct {
	tids    []int
	refused bool
}

// DaemonOptions tunes the daemon's failure detection.  The zero value
// keeps the historical behaviour: no read deadlines, sessions retained
// for resumption until they say goodbye.
type DaemonOptions struct {
	// IdleTimeout, when positive, detaches a session whose connection has
	// been silent for this long (sessions with heartbeats enabled refresh
	// it with pings).  A detached session is kept for resumption; its
	// outbound frames queue up meanwhile.
	IdleTimeout time.Duration
}

// Daemon is the message router.
type Daemon struct {
	ln   net.Listener
	opts DaemonOptions

	mu       sync.Mutex
	sessions map[int]*daemonConn
	nextID   int
	hosts    map[string][]int // spawn name -> session ids
	rrSpawn  map[string]int   // round-robin cursor per name
	barriers map[string]*daemonBarrier
	closed   bool
}

// daemonConn is one session's server-side state.  The session outlives
// any single TCP connection: when the conn breaks the link detaches and
// sequenced outbound frames accumulate until the client resumes with
// frameResume.  A broken write is not acted on: the daemon waits for the
// client to come back.
type daemonConn struct {
	id int
	link
	// done (guarded by wmu) is closed when the serve loop of the current
	// conn exits; a resume waits on it so no two readers process one
	// session at once.
	done chan struct{}
}

type daemonBarrier struct {
	parties int
	entered int
	members map[int]int // session id -> number of local entries
}

// NewDaemon starts a daemon on addr ("127.0.0.1:0" for an ephemeral
// port).  Use Addr to discover the bound address.
func NewDaemon(addr string) (*Daemon, error) {
	return NewDaemonOpts(addr, DaemonOptions{})
}

// NewDaemonOpts starts a daemon with explicit failure-detection options.
func NewDaemonOpts(addr string, opts DaemonOptions) (*Daemon, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		ln:       ln,
		opts:     opts,
		sessions: make(map[int]*daemonConn),
		hosts:    make(map[string][]int),
		rrSpawn:  make(map[string]int),
		barriers: make(map[string]*daemonBarrier),
	}
	go d.acceptLoop()
	return d, nil
}

// Addr returns the daemon's listen address.
func (d *Daemon) Addr() string { return d.ln.Addr().String() }

// Close shuts the daemon down and disconnects every session.
func (d *Daemon) Close() {
	d.mu.Lock()
	d.closed = true
	conns := make([]*daemonConn, 0, len(d.sessions))
	for _, c := range d.sessions {
		conns = append(conns, c)
	}
	d.mu.Unlock()
	d.ln.Close()
	for _, c := range conns {
		c.hangUp()
	}
}

func (d *Daemon) acceptLoop() {
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			return
		}
		go d.serve(conn)
	}
}

func (d *Daemon) sessionFor(tid int) *daemonConn {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sessions[tid/sessionStride]
}

func (d *Daemon) serve(conn net.Conn) {
	// Handshake: a fresh session says hello, a reconnecting one resumes.
	// Either way the peer must speak within a bounded window so a silent
	// connection cannot pin this goroutine forever.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := readFrame(conn)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return
	}
	var c *daemonConn
	done := make(chan struct{})
	switch f.typ {
	case frameHello:
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			conn.Close()
			return
		}
		d.nextID++
		c = &daemonConn{id: d.nextID, link: link{conn: conn}, done: done}
		d.sessions[c.id] = c
		d.mu.Unlock()
		c.send(frameWelcome, appendU32(nil, uint32(c.id)))
	case frameResume:
		c = d.resume(conn, f, done)
		if c == nil {
			conn.Close()
			return
		}
	default:
		conn.Close()
		return
	}
	d.serveLoop(c, conn, done)
}

// resume attaches conn to the existing detached (or stale-connected)
// session a frameResume names and replays the frames the client has not
// acknowledged.
func (d *Daemon) resume(conn net.Conn, f frame, done chan struct{}) *daemonConn {
	d.mu.Lock()
	c := d.sessions[int(f.id)]
	closed := d.closed
	d.mu.Unlock()
	if c == nil || closed {
		return nil
	}
	// Kick out a stale connection and wait for its reader to finish, so
	// recvSeq is stable before we tell the client what we have seen.
	c.wmu.Lock()
	old, oldDone := c.conn, c.done
	c.conn = nil
	c.wmu.Unlock()
	if old != nil {
		old.Close()
	}
	if oldDone != nil {
		<-oldDone
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := writeFrame(conn, frameResumeOK, appendU64(nil, c.recvSeq)); err != nil {
		return nil
	}
	if err := c.replay(conn, f.seq); err != nil {
		return nil
	}
	c.done = done
	return c
}

func (d *Daemon) serveLoop(c *daemonConn, conn net.Conn, done chan struct{}) {
	defer func() {
		// Detach rather than delete: the session's tids, barriers and
		// queued frames survive until the client resumes (or the daemon
		// shuts down).  Only frameBye removes a session.
		c.detach(conn)
		conn.Close()
		close(done)
	}()
	for {
		if d.opts.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(d.opts.IdleTimeout))
		}
		f, err := readFrame(conn)
		if err != nil {
			return
		}
		if control, _ := c.inbound(f.typ, f.seq); control {
			continue
		}
		switch f.typ {
		case frameMsg:
			// Route on dst; the body travels on as it came.
			if target := d.sessionFor(int(f.id)); target != nil {
				target.send(frameMsg, f.body)
			}
		case frameBarrier:
			d.handleBarrier(f.name, int(f.n), int(f.id))
		case frameRegHost:
			d.mu.Lock()
			if !slices.Contains(d.hosts[f.name], c.id) {
				d.hosts[f.name] = append(d.hosts[f.name], c.id)
			}
			d.mu.Unlock()
			c.send(frameRegAck, nil)
		case frameSpawnReq:
			d.handleSpawnReq(c, f)
		case frameSpawnRep:
			// Route back to the requester.
			if target := d.sessionFor(int(f.id)); target != nil {
				target.send(frameSpawnRep, f.body)
			}
		case frameBye:
			d.mu.Lock()
			delete(d.sessions, c.id)
			d.mu.Unlock()
			return
		}
	}
}

// handleBarrier counts session sid's entry into barrier name of parties.
func (d *Daemon) handleBarrier(name string, parties, sid int) {
	var release map[int]int
	d.mu.Lock()
	b := d.barriers[name]
	if b == nil {
		b = &daemonBarrier{parties: parties, members: make(map[int]int)}
		d.barriers[name] = b
	}
	b.entered++
	b.members[sid]++
	if b.entered == b.parties {
		release = b.members
		delete(d.barriers, name)
	}
	d.mu.Unlock()
	if release != nil {
		for sess, count := range release {
			d.mu.Lock()
			c := d.sessions[sess]
			d.mu.Unlock()
			if c != nil {
				body := appendStr(nil, name)
				body = appendU32(body, uint32(count))
				c.send(frameRelease, body)
			}
		}
	}
}

// handleSpawnReq forwards a spawn request to a session hosting its name.
func (d *Daemon) handleSpawnReq(from *daemonConn, f frame) {
	d.mu.Lock()
	hosts := d.hosts[f.name]
	var host *daemonConn
	if len(hosts) > 0 {
		host = d.sessions[hosts[d.rrSpawn[f.name]%len(hosts)]]
		d.rrSpawn[f.name]++
	}
	d.mu.Unlock()
	if host == nil {
		// Nobody registered: tell the requester to spawn locally.
		rep := appendU32(nil, f.id)
		rep = appendU32(rep, 0)
		from.send(frameSpawnRep, rep)
		return
	}
	fwd := appendU32(nil, f.id)
	fwd = appendU32(fwd, f.n)
	fwd = appendStr(fwd, f.name)
	host.send(frameSpawnFwd, fwd)
}

// TCPOptions tunes a session's failure handling.  The zero value matches
// the historical behaviour plus bounded reconnects with session
// resumption (heartbeats stay opt-in so short-lived test sessions do not
// pay a liveness protocol they don't need).
type TCPOptions struct {
	// Dial overrides how the session (re)connects to the daemon — the
	// injection point for fault.Dialer in chaos tests.  nil means plain
	// net.Dial("tcp", addr).
	Dial func(addr string) (net.Conn, error)
	// Heartbeat, when positive, sends a ping every interval and treats a
	// connection with no inbound traffic for 3 intervals as dead
	// (triggering a reconnect).
	Heartbeat time.Duration
	// MaxReconnects bounds the reconnect attempts per outage before the
	// session is declared permanently down (default 8, full-jitter
	// exponential backoff on a 5ms..500ms schedule).  Negative disables
	// reconnecting entirely.
	MaxReconnects int
	// HandshakeTimeout bounds the welcome/resume exchange (default 5s).
	HandshakeTimeout time.Duration
	// ReconnectSeed seeds the jittered backoff schedule; 0 derives a
	// per-session seed from the clock.  Tests pin it so reconnect
	// timing is reproducible.
	ReconnectSeed int64
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.Dial == nil {
		o.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if o.MaxReconnects == 0 {
		o.MaxReconnects = 8
	}
	if o.HandshakeTimeout == 0 {
		o.HandshakeTimeout = 5 * time.Second
	}
	return o
}

// TCPVM is one session of the network fabric: it hosts local tasks (real
// goroutines) whose messages to non-local task ids travel through the
// daemon.  The session survives connection loss: sequenced frames are
// retained until acked and replayed over a resumed connection, so task
// ids and undelivered messages outlive any single TCP connection.
type TCPVM struct {
	addr string
	opts TCPOptions
	id   int

	// The link to the daemon; a broken connection starts a bounded
	// reconnect (see lost).
	link
	err error // permanent failure, set once; guarded by wmu

	stopOnce sync.Once
	stopc    chan struct{} // closed on Close or permanent failure

	mu       sync.Mutex
	tasks    map[int]*tcpTask
	nextTask int
	spawnFns map[string]func(Task)
	barriers map[string]*tcpBarrier
	spawnRep map[int]chan spawnReply
	regAck   chan struct{}
	start    time.Time
	wg       sync.WaitGroup
	closed   bool
}

// tcpBarrier is a session's view of one named barrier.  Local entries
// take consecutive tickets and a ticket passes once that many releases
// have arrived: a task released from one round that re-enters the name at
// once queues behind the tasks still leaving that round, instead of
// consuming their release.
type tcpBarrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	entered  int // tickets handed out
	released int // releases received from the daemon
}

// ConnectTCP joins the daemon at addr and returns a session.
func ConnectTCP(addr string) (*TCPVM, error) {
	return ConnectTCPOpts(addr, TCPOptions{})
}

// ConnectTCPOpts joins the daemon at addr with explicit failure-handling
// options.
func ConnectTCPOpts(addr string, opts TCPOptions) (*TCPVM, error) {
	opts = opts.withDefaults()
	conn, err := opts.Dial(addr)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(opts.HandshakeTimeout))
	if err := writeFrame(conn, frameHello, nil); err != nil {
		conn.Close()
		return nil, err
	}
	welcome, err := readFrame(conn)
	if err != nil || welcome.typ != frameWelcome {
		conn.Close()
		return nil, fmt.Errorf("pvm: bad welcome from daemon")
	}
	conn.SetDeadline(time.Time{})
	v := &TCPVM{
		addr:     addr,
		opts:     opts,
		link:     link{conn: conn},
		id:       int(welcome.id),
		stopc:    make(chan struct{}),
		tasks:    make(map[int]*tcpTask),
		spawnFns: make(map[string]func(Task)),
		barriers: make(map[string]*tcpBarrier),
		spawnRep: make(map[int]chan spawnReply),
		regAck:   make(chan struct{}, 16),
		start:    time.Now(),
	}
	go v.readLoop(conn)
	if opts.Heartbeat > 0 {
		go v.heartbeatLoop()
	}
	return v, nil
}

// Err returns the session's permanent failure, or nil while it is (or
// may again become) usable.
func (v *TCPVM) Err() error {
	v.wmu.Lock()
	defer v.wmu.Unlock()
	return v.err
}

// fail marks the session permanently down and wakes every blocked task
// so a partitioned peer yields an error instead of a hang.
func (v *TCPVM) fail(err error) {
	v.wmu.Lock()
	if v.err == nil {
		v.err = err
	}
	if v.conn != nil {
		v.conn.Close()
		v.conn = nil
	}
	v.wmu.Unlock()
	v.stopOnce.Do(func() { close(v.stopc) })
	// Nothing takes v.mu while holding a task's or a barrier's lock.
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, t := range v.tasks {
		t.wake()
	}
	for _, b := range v.barriers {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// Close leaves the daemon.  Local tasks should have finished.
func (v *TCPVM) Close() {
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return
	}
	v.closed = true
	v.mu.Unlock()
	v.stopOnce.Do(func() { close(v.stopc) })
	v.send(frameBye, nil)
	v.hangUp()
}

// Wait blocks until all local tasks finish.
func (v *TCPVM) Wait() { v.wg.Wait() }

// connBroken detaches conn and, if it was still the live connection,
// starts the bounded reconnect.  Safe to call from any goroutine: only the
// caller that actually detaches gets to react.
func (v *TCPVM) connBroken(conn net.Conn) {
	if v.detach(conn) {
		v.lost()
	}
}

// lost reacts to the link having just lost its connection: reconnect,
// unless the session is closing or reconnects are disabled.
func (v *TCPVM) lost() {
	v.mu.Lock()
	closed := v.closed
	v.mu.Unlock()
	if closed {
		return
	}
	if v.opts.MaxReconnects < 0 {
		v.fail(fmt.Errorf("pvm: session %d: connection to daemon lost", v.id))
		return
	}
	go v.reconnect()
}

// reconnect re-dials the daemon with full-jitter exponential backoff and
// resumes the session: both sides exchange how much they have received,
// then replay the retained frames the other missed.  The jitter is the
// point — when a daemon restart breaks every session at once, uniform
// draws over a growing window decorrelate the retry storm instead of
// synchronizing it.
func (v *TCPVM) reconnect() {
	seed := v.opts.ReconnectSeed
	if seed == 0 {
		seed = time.Now().UnixNano() ^ int64(v.id)<<32
	}
	rng := rand.New(rand.NewSource(seed))
	var lastErr error
	for attempt := 0; attempt < v.opts.MaxReconnects; attempt++ {
		select {
		case <-v.stopc:
			return
		case <-time.After(reconnectDelay(attempt, rng)):
		}
		conn, err := v.opts.Dial(v.addr)
		if err != nil {
			lastErr = err
			continue
		}
		if v.resumeOn(conn) {
			telemetry.PvmReconnects.Add(1)
			telemetry.Emit("pvm_reconnect", telemetry.F{"session": v.id, "attempt": attempt + 1})
			return
		}
		lastErr = fmt.Errorf("resume handshake failed")
	}
	v.fail(fmt.Errorf("pvm: session %d: reconnect gave up after %d attempts: %v",
		v.id, v.opts.MaxReconnects, lastErr))
}

// reconnectDelay draws the full-jitter backoff before 0-based reconnect
// attempt: uniform in (0, min(500ms, 5ms<<attempt)].
func reconnectDelay(attempt int, rng *rand.Rand) time.Duration {
	const base, ceil = 5 * time.Millisecond, 500 * time.Millisecond
	window := base << uint(attempt)
	if window > ceil || window <= 0 {
		window = ceil
	}
	return time.Duration(rng.Int63n(int64(window))) + 1
}

// resumeOn performs the resume handshake and replay on a fresh conn.
func (v *TCPVM) resumeOn(conn net.Conn) bool {
	conn.SetDeadline(time.Now().Add(v.opts.HandshakeTimeout))
	req := appendU64(appendU32(nil, uint32(v.id)), v.received())
	if err := writeFrame(conn, frameResume, req); err != nil {
		conn.Close()
		return false
	}
	resumed, err := readFrame(conn)
	if err != nil || resumed.typ != frameResumeOK {
		conn.Close()
		return false
	}
	conn.SetDeadline(time.Time{})
	v.wmu.Lock()
	err = v.replay(conn, resumed.seq)
	v.wmu.Unlock()
	if err != nil {
		conn.Close()
		return false
	}
	go v.readLoop(conn)
	return true
}

func (v *TCPVM) heartbeatLoop() {
	tick := time.NewTicker(v.opts.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-v.stopc:
			return
		case <-tick.C:
			telemetry.PvmHeartbeats.Add(1)
			v.write(framePing, appendU64(nil, v.received()))
		}
	}
}

// RegisterSpawn announces that this session can host spawns of the given
// name (the pvm_spawn executable registry).  It returns once the daemon
// has processed the registration, so subsequent spawns from any session
// will find the host.
func (v *TCPVM) RegisterSpawn(name string, fn func(Task)) {
	v.mu.Lock()
	v.spawnFns[name] = fn
	v.mu.Unlock()
	v.write(frameRegHost, appendStr(nil, name))
	select {
	case <-v.regAck:
	case <-v.stopc:
	}
}

// write sends a frame to the daemon.  While disconnected a sequenced frame
// waits for the resume replay and a control frame is dropped.
func (v *TCPVM) write(typ byte, body []byte) {
	if v.send(typ, body) != nil {
		v.lost()
	}
}

// SpawnRoot starts a local task.  It panics with ErrTaskRange once the
// session's task ids are spent.
func (v *TCPVM) SpawnRoot(name string, fn func(Task)) int {
	tid, err := v.reserve(1)
	if err != nil {
		panic(err)
	}
	v.spawn(tid, name, -1, 0, fn)
	return tid
}

// reserve claims n consecutive task ids of the session's range and returns
// the first, or claims none and fails with ErrTaskRange.
func (v *TCPVM) reserve(n int) (int, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if left := sessionStride - v.nextTask; n < 0 || n > left {
		return 0, fmt.Errorf("%w: %d tasks asked of session %d, %d ids left", ErrTaskRange, n, v.id, left)
	}
	first := v.id*sessionStride + v.nextTask
	v.nextTask += n
	return first, nil
}

// spawnChildren reserves ids for n children of parent and starts them,
// named name-0 … name-(n-1).
func (v *TCPVM) spawnChildren(name string, parent, n int, fn func(Task)) ([]int, error) {
	first, err := v.reserve(n)
	if err != nil {
		return nil, err
	}
	tids := make([]int, n)
	for i := range tids {
		tids[i] = first + i
		v.spawn(tids[i], fmt.Sprintf("%s-%d", name, i), parent, i, fn)
	}
	return tids, nil
}

// spawn registers a local task under a reserved tid and starts its
// goroutine.
func (v *TCPVM) spawn(tid int, name string, parent, instance int, fn func(Task)) {
	t := &tcpTask{
		vm: v, tid: tid,
		name: name, parent: parent, instance: instance,
		mon:      hpm.NewMonitor(hpm.CanonicalWeights()),
		lastMark: time.Now(),
	}
	t.cond = sync.NewCond(&t.mu)
	v.mu.Lock()
	v.tasks[tid] = t
	v.mu.Unlock()
	v.wg.Add(1)
	go func() {
		defer v.wg.Done()
		fn(t)
	}()
}

func (v *TCPVM) readLoop(conn net.Conn) {
	for {
		if v.opts.Heartbeat > 0 {
			conn.SetReadDeadline(time.Now().Add(3 * v.opts.Heartbeat))
		}
		f, err := readFrame(conn)
		if err != nil {
			v.connBroken(conn)
			return
		}
		control, broken := v.inbound(f.typ, f.seq)
		if broken != nil {
			v.lost()
		}
		if control {
			continue
		}
		switch f.typ {
		case frameMsg:
			v.deliver(f)
		case frameRelease:
			b := v.barrier(f.name)
			b.mu.Lock()
			b.released += int(f.n)
			b.cond.Broadcast()
			b.mu.Unlock()
		case frameRegAck:
			v.regAck <- struct{}{}
		case frameSpawnFwd:
			go v.handleSpawnFwd(f)
		case frameSpawnRep:
			v.mu.Lock()
			ch := v.spawnRep[int(f.id)]
			v.mu.Unlock()
			if ch != nil {
				ch <- f.rep
			}
		}
	}
}

// deliver unpacks a routed message's buffer into the local task's
// mailbox.  A message whose buffer does not decode, or whose task is gone,
// is dropped.
func (v *TCPVM) deliver(f frame) {
	var buf Buffer
	if err := buf.UnmarshalBinary(f.payload); err != nil {
		return
	}
	v.mu.Lock()
	t := v.tasks[int(f.id)]
	v.mu.Unlock()
	if t == nil {
		return
	}
	t.enqueue(int(f.src), int(f.tag), &buf)
}

// handleSpawnFwd spawns the tasks a forwarded spawn request asks of this
// session and answers the requester.
func (v *TCPVM) handleSpawnFwd(f frame) {
	v.mu.Lock()
	fn := v.spawnFns[f.name]
	v.mu.Unlock()
	var tids []int
	if fn != nil {
		// Refused whole, before any task id is claimed: a count above
		// maxForwardedSpawn, or past this session's task ids — the wire's
		// u32 would otherwise start that many goroutines, under TIDs of
		// the next session's range.
		refused := f.n > maxForwardedSpawn
		if !refused {
			var err error
			tids, err = v.spawnChildren(f.name, int(f.id), int(f.n), fn)
			refused = err != nil
		}
		if refused {
			v.write(frameSpawnRep, appendU32(appendU32(nil, f.id), spawnRefused))
			return
		}
	}
	rep := appendU32(nil, f.id)
	rep = appendU32(rep, uint32(len(tids)))
	for _, tid := range tids {
		rep = appendU32(rep, uint32(tid))
	}
	v.write(frameSpawnRep, rep)
}

func (v *TCPVM) barrier(name string) *tcpBarrier {
	v.mu.Lock()
	defer v.mu.Unlock()
	b := v.barriers[name]
	if b == nil {
		b = &tcpBarrier{}
		b.cond = sync.NewCond(&b.mu)
		v.barriers[name] = b
	}
	return b
}

// tcpTask is one local task of a network session: an identity, a hardware
// performance monitor, wall-clock time and a mutex-protected mailbox that
// real goroutines — a sending task of the same session, or the session's
// reader — deliver into.  Sends to non-local task ids are framed and routed
// through the daemon.
type tcpTask struct {
	vm       *TCPVM
	tid      int
	name     string
	parent   int
	instance int
	mon      *hpm.Monitor

	mu       sync.Mutex
	cond     *sync.Cond
	mailbox  []tcpMsg
	lastMark time.Time // boundary for Charge time attribution
}

type tcpMsg struct {
	src, tag int
	buf      *Buffer
}

func (t *tcpTask) TID() int              { return t.tid }
func (t *tcpTask) Parent() int           { return t.parent }
func (t *tcpTask) Name() string          { return t.name }
func (t *tcpTask) Instance() int         { return t.instance }
func (t *tcpTask) Monitor() *hpm.Monitor { return t.mon }
func (t *tcpTask) Now() float64          { return time.Since(t.vm.start).Seconds() }
func (t *tcpTask) SetWorkingSet(int)     {} // real memory hierarchy applies itself

// enqueue delivers a message into the task's mailbox and wakes its
// receiver.  Called from the sender's (or the session reader's) goroutine.
func (t *tcpTask) enqueue(src, tag int, b *Buffer) {
	t.mu.Lock()
	t.mailbox = append(t.mailbox, tcpMsg{src: src, tag: tag, buf: b})
	t.cond.Broadcast()
	t.mu.Unlock()
}

// wake makes a blocked receive re-evaluate its exit conditions.
func (t *tcpTask) wake() {
	t.mu.Lock()
	t.cond.Broadcast()
	t.mu.Unlock()
}

// find returns the mailbox index of the first message matching (src, tag),
// or -1.  The caller holds t.mu.
func (t *tcpTask) find(src, tag int) int {
	for i, m := range t.mailbox {
		if (src < 0 || m.src == src) && (tag < 0 || m.tag == tag) {
			return i
		}
	}
	return -1
}

func (t *tcpTask) Probe(src, tag int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.find(src, tag) >= 0
}

// Charge attributes the wall time since the last boundary event (the
// previous charge or receive) to the named counter along with the op
// counts — the best a real machine without virtual clocks can do, and the
// same approximation the paper's instrumented middleware makes.
func (t *tcpTask) Charge(counter string, ops hpm.Ops) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	dt := now.Sub(t.lastMark).Seconds()
	t.lastMark = now
	t.mon.Charge(counter, ops, dt)
}

func (t *tcpTask) Send(dst, tag int, b *Buffer) {
	if b == nil {
		b = NewBuffer()
	}
	telemetry.RecordSend(nil, t.tid, dst, uint64(b.Bytes()))
	// Local fast path.
	t.vm.mu.Lock()
	local := t.vm.tasks[dst]
	t.vm.mu.Unlock()
	if local != nil {
		local.enqueue(t.tid, tag, b)
		return
	}
	wire, err := b.MarshalBinary()
	if err != nil {
		panic(err)
	}
	body := appendU32(nil, uint32(dst))
	body = appendU32(body, uint32(t.tid))
	body = appendU32(body, uint32(tag))
	body = append(body, wire...)
	t.vm.write(frameMsg, body)
}

func (t *tcpTask) Mcast(dsts []int, tag int, b *Buffer) {
	for _, d := range dsts {
		t.Send(d, tag, b)
	}
}

func (t *tcpTask) Recv(src, tag int) (*Buffer, int, int) {
	b, msrc, mtag, err := t.RecvTimeout(src, tag, 0)
	if err != nil {
		// The session is permanently partitioned: Recv has no error
		// return, so failing loudly is the liveness guarantee — a dead
		// peer must never present as a silent hang.  Callers that want
		// an error use RecvTimeout.
		panic(fmt.Sprintf("pvm: recv on dead session: %v", err))
	}
	return b, msrc, mtag
}

// ErrRecvTimeout reports that RecvTimeout's window elapsed with no
// matching message.
var ErrRecvTimeout = fmt.Errorf("pvm: recv timed out")

// RecvTimeout waits at most d for a matching message and returns an error
// on timeout or when the session is permanently down.  d <= 0 waits
// indefinitely (but still fails fast on session death).
func (t *tcpTask) RecvTimeout(src, tag int, d time.Duration) (*Buffer, int, int, error) {
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
		timer := time.AfterFunc(d, t.wake)
		defer timer.Stop()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if i := t.find(src, tag); i >= 0 {
			m := t.mailbox[i]
			t.mailbox = append(t.mailbox[:i], t.mailbox[i+1:]...)
			t.lastMark = time.Now()
			return m.buf.reader(), m.src, m.tag, nil
		}
		if err := t.vm.Err(); err != nil {
			return nil, 0, 0, err
		}
		if d > 0 && !time.Now().Before(deadline) {
			return nil, 0, 0, ErrRecvTimeout
		}
		t.cond.Wait()
	}
}

func (t *tcpTask) Barrier(name string, parties int) {
	telemetry.PvmBarriers.Add(1)
	body := appendStr(nil, name)
	body = appendU32(body, uint32(parties))
	body = appendU32(body, uint32(t.vm.id))
	b := t.vm.barrier(name)
	b.mu.Lock()
	ticket := b.entered
	b.entered++
	b.mu.Unlock()
	t.vm.write(frameBarrier, body)
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.released <= ticket {
		if err := t.vm.Err(); err != nil {
			panic(fmt.Sprintf("pvm: barrier %q on dead session: %v", name, err))
		}
		b.cond.Wait()
	}
}

// Spawn asks the daemon for a host registered under name; if none exists
// the tasks run locally with fn.  Note that a remote host runs its own
// *registered* function for the name — like pvm_spawn starting a named
// executable — so fn is only the local fallback.  A spawn past the
// session's task ids, local or on the host, and one of more than
// maxForwardedSpawn tasks on the host, panics with an error wrapping
// ErrTaskRange.
func (t *tcpTask) Spawn(name string, n int, fn func(Task)) []int {
	ch := make(chan spawnReply, 1)
	t.vm.mu.Lock()
	t.vm.spawnRep[t.tid] = ch
	t.vm.mu.Unlock()
	defer func() {
		t.vm.mu.Lock()
		delete(t.vm.spawnRep, t.tid)
		t.vm.mu.Unlock()
	}()
	body := appendU32(nil, uint32(t.tid))
	body = appendU32(body, uint32(n))
	body = appendStr(body, name)
	t.vm.write(frameSpawnReq, body)
	var rep spawnReply
	select {
	case rep = <-ch:
	case <-t.vm.stopc:
		if err := t.vm.Err(); err != nil {
			panic(fmt.Sprintf("pvm: spawn %q on dead session: %v", name, err))
		}
		return nil
	}
	if rep.refused {
		panic(fmt.Errorf("%w: the host of %q refused %d tasks", ErrTaskRange, name, n))
	}
	if len(rep.tids) > 0 {
		return rep.tids
	}
	// Local fallback.
	tids, err := t.vm.spawnChildren(name, t.tid, n, fn)
	if err != nil {
		panic(err)
	}
	return tids
}
