// Package vm implements a deterministic, process-oriented discrete-event
// simulation kernel with virtual clocks.
//
// The kernel stands in for the hardware platforms of the paper (Cray J90,
// Cray T3E-900 and the three Cluster-of-PCs flavours) that are no longer
// available.  Every simulated process (a PVM task in the layers above) is a
// coroutine (iter.Pull) with a local virtual clock.  Exactly one process
// executes at any instant: Kernel.Run switches directly into the runnable
// process with the smallest local time (ties broken by process id), the
// process switches straight back when it blocks, and no Go scheduler
// decision is involved — which makes simulations reproducible bit for bit
// and a hand-off a few hundred nanoseconds cheaper than a channel round
// trip.
//
// Lifecycle is owned by Run.  Whenever Run exits with unfinished processes
// (a DeadlockError, a panic, a runtime.Goexit), it stops every one of them:
// a stopped process unwinds from the yield it is parked in by panicking
// with a private sentinel, so its deferred calls run and its coroutine
// exits; a deferred call that tries to block again gets the same sentinel.
// A panic raised by a simulated task propagates, with its original value,
// out of Run on the goroutine that called Run, where the caller's own
// recover can see it.
//
// Virtual time is charged through a pluggable cost model:
//
//   - Compute(flops) advances the local clock by seconds obtained from the
//     process's ComputeModel (which may depend on the current working set,
//     modelling the memory hierarchy of Section 2.6 of the paper);
//   - Send charges the sender `busy` seconds and stamps the message with an
//     arrival time `busy+latency` later, per the paper's t = b1 + bytes/a1
//     communication model;
//   - Recv blocks until the earliest-arriving matching message is safe to
//     deliver;
//   - Barrier releases all member processes at max(arrival)+syncCost and
//     classifies the wait as idle and the release as synchronization, which
//     is exactly the accounting instrumentation the paper added to Sciddle.
package vm

import (
	"fmt"
	"iter"
	"sort"
	"strings"
)

// Time is virtual time in seconds.
type Time = float64

// SegKind classifies a span of a process's virtual timeline.  The five kinds
// correspond to the five response variables of the paper's experimental
// design (Section 2.3): computation, communication, synchronization and idle
// time; SegOther covers bookkeeping that the paper folds into computation.
type SegKind int

const (
	// SegCompute is time spent computing (parallel or sequential work).
	SegCompute SegKind = iota
	// SegComm is time spent inside communication primitives.
	SegComm
	// SegSync is time spent in the synchronization operation proper.
	SegSync
	// SegIdle is time spent waiting: for a message to arrive or for other
	// processes to reach a barrier (load imbalance).
	SegIdle
	// SegOther is uncategorized virtual time.
	SegOther
	// SegRecovery is time spent absorbing a fault: a spurious
	// retransmission occupying the shared channel, a crash-recovery
	// window, or a straggler delay before a barrier.  Zero in fault-free
	// runs, so the classic five-way breakdown is unchanged.
	SegRecovery
)

var segNames = [...]string{"compute", "comm", "sync", "idle", "other", "recovery"}

func (k SegKind) String() string {
	if int(k) < len(segNames) {
		return segNames[k]
	}
	return fmt.Sprintf("SegKind(%d)", int(k))
}

// NumSegKinds is the number of distinct segment kinds.
const NumSegKinds = 6

// Tracer receives every classified span of virtual time.  trace.Recorder is
// the canonical implementation; a nil tracer disables tracing.
type Tracer interface {
	Segment(proc int, name string, kind SegKind, start, end Time)
}

// Message is a unit of communication between processes.
type Message struct {
	Src, Dst int
	Tag      int
	Bytes    int // payload size used by the communication cost model
	Payload  any
	Arrival  Time
	seq      uint64 // global sequence number, breaks arrival ties
}

// CommModel prices point-to-point communication and barrier synchronization.
type CommModel interface {
	// SendCost returns the time the sender is busy transmitting (charged
	// to the sender as SegComm) and the additional latency before the
	// message becomes visible at the destination.
	SendCost(src, dst, bytes int) (busy, latency float64)
	// SyncCost returns the cost of one barrier synchronization of n
	// processes (the b5 parameter of the paper's model).
	SyncCost(n int) float64
}

// ComputeModel converts a floating-point operation count into virtual
// seconds, possibly dependent on the working-set size in bytes.
type ComputeModel interface {
	Seconds(flops float64, workingSet int) float64
}

// FaultModel injects faults into a simulation as deterministic virtual-time
// perturbations.  Because every hook is consulted from the process that
// holds the execution token — and the kernel's token hand-off order is
// itself deterministic — a seeded model yields bit-identical fault
// schedules run after run.  All faults are *recoverable by construction*:
// they stretch the timeline (retransmission delays, spurious resends,
// crash-recovery windows, stragglers) but never corrupt or reorder
// payloads, so simulated physics results are unchanged and every run that
// terminates fault-free also terminates under faults.  internal/fault
// provides the canonical seeded implementation.
type FaultModel interface {
	// SendFault is consulted once per transmission.  delay is extra latency
	// added to the message's arrival (a dropped first copy recovered by a
	// retransmission after a retry timeout); resend is extra shared-channel
	// occupancy charged to the sender as SegRecovery (a spurious duplicate
	// transmission).  Return zeros for no fault.
	SendFault(src, dst, bytes int) (delay, resend float64)
	// ComputeFault is consulted once per Compute burst; a positive return
	// freezes the process for that many virtual seconds (a task crash
	// followed by checkpoint restart on a hot spare), classified as
	// SegRecovery.
	ComputeFault(proc int) float64
	// BarrierFault is consulted once per barrier arrival; a positive return
	// delays the process's arrival by that many seconds (a straggler),
	// classified as SegRecovery.
	BarrierFault(proc int) float64
}

// FixedCost is a trivial CommModel with constant per-message overhead, a
// fixed bandwidth and a fixed barrier cost.  The platform package provides
// richer models; FixedCost is convenient for tests.
type FixedCost struct {
	Overhead  float64 // seconds per message (b1)
	ByteRate  float64 // bytes per second (a1)
	Latency   float64 // extra wire latency
	SyncDelay float64 // barrier cost (b5)
}

// SendCost implements CommModel.
func (f FixedCost) SendCost(src, dst, bytes int) (busy, latency float64) {
	busy = f.Overhead
	if f.ByteRate > 0 {
		busy += float64(bytes) / f.ByteRate
	}
	return busy, f.Latency
}

// SyncCost implements CommModel.
func (f FixedCost) SyncCost(n int) float64 { return f.SyncDelay }

// ConstRate is a ComputeModel with a flat rate in flop/s.
type ConstRate float64

// Seconds implements ComputeModel.
func (r ConstRate) Seconds(flops float64, ws int) float64 {
	if r <= 0 {
		return 0
	}
	return flops / float64(r)
}

type procState int

const (
	stateReady procState = iota
	stateRunning
	stateRecv
	stateBarrier
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateRecv:
		return "recv"
	case stateBarrier:
		return "barrier"
	case stateDone:
		return "done"
	}
	return "unknown"
}

// Stats accumulates per-process accounting maintained by the kernel in
// addition to any Tracer.
type Stats struct {
	Seg       [NumSegKinds]float64 // virtual seconds per segment kind
	MsgsSent  int
	BytesSent int
	MsgsRecv  int
	BytesRecv int
	Flops     float64 // flops charged through Compute
}

// Proc is a simulated process.  All methods must be called from the
// process's own coroutine while it holds the execution token (i.e. from
// inside the function passed to NewProc or Spawn); the one exception is
// the macro replay described at the three timing rules below.
type Proc struct {
	k       *Kernel
	id      int
	name    string
	now     Time
	compute ComputeModel
	ws      int // current working-set size in bytes
	stats   Stats

	state procState
	// Coroutine controls, set by startProc: resume switches into the
	// process until it blocks (true) or finishes (false), stop unwinds it,
	// suspend (valid once the process has run) switches back to whoever
	// called resume and reports false when the process has been stopped.
	resume  func() (struct{}, bool)
	stop    func()
	suspend func(struct{}) bool
	mailbox []*Message
	// Ready-queue bookkeeping: index into Kernel.ready (-1 when not
	// enqueued) and the cached scheduling key while enqueued.
	heapIdx int
	key     Time
	// Receive matching: either a predicate closure (Recv) or an inline
	// (src, tag) pair (RecvSrcTag), the latter so the common pvm_recv
	// shape allocates nothing.
	match              func(*Message) bool
	matchSrc, matchTag int
	got                *Message
	fn                 func(*Proc)
}

// ID returns the process id (0-based, dense).
func (p *Proc) ID() int { return p.id }

// Name returns the process name given at creation.
func (p *Proc) Name() string { return p.name }

// Now returns the process's local virtual time in seconds.
func (p *Proc) Now() Time { return p.now }

// Stats returns a snapshot of the process's accounting counters.
func (p *Proc) Stats() Stats { return p.stats }

// SetWorkingSet declares the process's current working-set size in bytes;
// the compute model may slow the process down when the working set spills
// out of cache or core memory (Section 2.6 of the paper).
func (p *Proc) SetWorkingSet(bytes int) { p.ws = bytes }

// WorkingSet returns the declared working-set size in bytes.
func (p *Proc) WorkingSet() int { return p.ws }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

func (p *Proc) segment(kind SegKind, start, end Time) {
	if end <= start {
		return
	}
	p.stats.Seg[kind] += end - start
	if p.k.tracer != nil {
		p.k.tracer.Segment(p.id, p.name, kind, start, end)
	}
}

// Compute advances the local clock by the cost of the given number of
// (platform-counted) floating-point operations.
func (p *Proc) Compute(flops float64) {
	if flops <= 0 {
		return
	}
	if p.k.faults != nil {
		if r := p.k.faults.ComputeFault(p.id); r > 0 {
			p.Elapse(r, SegRecovery)
		}
	}
	var dt float64
	if p.compute != nil {
		dt = p.compute.Seconds(flops, p.ws)
	}
	p.stats.Flops += flops
	p.Elapse(dt, SegCompute)
}

// Waiting reports whether the process is blocked in a receive — the
// state a quiesced RPC server parks in between phases.  Macro replay
// layers use it to verify a fleet is safe to advance analytically.
func (p *Proc) Waiting() bool { return p.state == stateRecv }

// Elapse advances the local clock by d seconds classified as kind.
func (p *Proc) Elapse(d float64, kind SegKind) {
	if d < 0 {
		panic(fmt.Sprintf("vm: proc %d elapses negative time %g", p.id, d))
	}
	if d == 0 {
		return
	}
	start := p.now
	p.now += d
	p.segment(kind, start, p.now)
}

// Send transmits a message to the process with id dst.  The sender is
// charged per the send rule (Transmit); the message becomes receivable at
// the arrival time the rule returns.  Payload is shared by reference:
// simulated processes live in one address space, exactly like PVM tasks on
// a shared-memory Cray J90 node; the honest data volume must be declared
// in bytes for the cost model.
//
// To keep the shared channel causally consistent, Send first yields to the
// scheduler so that all sends execute in global virtual-time order.
func (p *Proc) Send(dst, tag int, payload any, bytes int) {
	q := p.k.proc(dst)
	if q == nil {
		panic(fmt.Sprintf("vm: send to unknown proc %d", dst))
	}
	// Re-enter through the scheduler at our current time so that sends
	// from processes with earlier clocks hit the channel first.  When no
	// other process could be scheduled before us (the common steady-state
	// case), the round-trip is provably a no-op and is skipped.
	if !p.k.soleRunnable(p) {
		p.yield()
	}
	arrival := p.Transmit(dst, bytes)
	m := p.k.newMessage()
	*m = Message{
		Src: p.id, Dst: dst, Tag: tag,
		Bytes: bytes, Payload: payload,
		Arrival: arrival,
		seq:     p.k.nextSeq(),
	}
	q.mailbox = append(q.mailbox, m)
	p.k.noteArrival(q, m)
}

// The three timing rules.  Every message and every barrier of a simulation
// is priced here and nowhere else: Send, Recv and Barrier apply a rule to
// the calling process once the scheduler has decided its turn, and the
// level-of-detail replay in pvm (MacroPhase) applies the same rule to the
// client and to its parked, receive-blocked servers (whose handlers it also
// runs, charging Compute) from the client's coroutine, in the (time, id)
// order the scheduler would have chosen.  A rule moves clocks, Stats and
// traced segments and consults the fault plane; it never blocks, schedules
// or materializes a Message.  The caller must hold the execution token.

// Transmit is the send rule: p transmits bytes to dst, starting at its
// current time, and the arrival time of the message is returned.  The
// sender is busy per the communication model (SegComm) and the message is
// visible busy+latency after the transfer started, the paper's
// t = b1 + bytes/a1.
//
// Transfers with a non-zero cost contend for one shared communication
// channel (the single client-server channel whose contention the paper's
// accounting barriers expose, Section 3.3): a transfer starts no earlier
// than the previous one finished.
func (p *Proc) Transmit(dst, bytes int) (arrival Time) {
	busy, latency := 0.0, 0.0
	if p.k.comm != nil {
		busy, latency = p.k.comm.SendCost(p.id, dst, bytes)
	}
	// Fault plane: a drop surfaces as extra arrival delay (the transport
	// retransmits after its retry timeout); a duplicate surfaces as a
	// spurious resend occupying the shared channel, charged to the sender
	// as recovery overhead.
	delay, resend := 0.0, 0.0
	if p.k.faults != nil {
		delay, resend = p.k.faults.SendFault(p.id, dst, bytes)
	}
	start := p.now
	if busy+resend > 0 {
		if p.k.chanFree > start {
			// Queue behind the transfer in flight.  The wait is idle
			// time — the channel occupancy itself is what counts as
			// communication, once, at the occupying sender.
			p.segment(SegIdle, start, p.k.chanFree)
			start = p.k.chanFree
		}
		p.k.chanFree = start + busy + resend
	}
	end := start + busy
	p.segment(SegComm, start, end)
	if resend > 0 {
		p.segment(SegRecovery, end, end+resend)
		end += resend
	}
	p.now = end
	latency += delay
	p.stats.MsgsSent++
	p.stats.BytesSent += bytes
	return p.now + latency
}

// Accept is the receive rule: p takes delivery of a message of the given
// volume that arrives at arrival, idling (SegIdle) until then if it is
// early.
func (p *Proc) Accept(arrival Time, bytes int) {
	if arrival > p.now {
		p.segment(SegIdle, p.now, arrival)
		p.now = arrival
	}
	p.stats.MsgsRecv++
	p.stats.BytesRecv += bytes
}

// Arrive is the barrier rule: p arrives at a barrier of the given party
// count at which waiting arrived before it, and the member list including
// p is returned.  The fault plane may make p a straggler: it reaches the
// barrier late, carrying the delay as SegRecovery, and the others see it
// as load imbalance.  When p completes the party the barrier releases:
// every member resumes at max(arrival)+SyncCost, the wait until the last
// arrival classified as SegIdle and the synchronization operation itself
// as SegSync, mirroring the accounting barriers the paper added to the
// Sciddle middleware (Section 3.3).  A waiting member's clock is its
// arrival time: nothing advances a process between arrival and release.
func (p *Proc) Arrive(waiting []*Proc, parties int) (members []*Proc, released bool) {
	if p.k.faults != nil {
		if s := p.k.faults.BarrierFault(p.id); s > 0 {
			p.Elapse(s, SegRecovery)
		}
	}
	members = append(waiting, p)
	if len(members) < parties {
		return members, false
	}
	release := p.now
	for _, q := range members {
		if q.now > release {
			release = q.now
		}
	}
	sync := 0.0
	if p.k.comm != nil {
		sync = p.k.comm.SyncCost(parties)
	}
	for _, q := range members {
		q.segment(SegIdle, q.now, release)
		q.segment(SegSync, release, release+sync)
		q.now = release + sync
	}
	return members, true
}

// noteArrival updates the ready queue after m was appended to q's
// mailbox: a receive-blocked process whose criterion matches becomes
// runnable at max(local time, arrival).  A later message can only carry
// a larger sequence number, so an already-enqueued receiver's key can
// only decrease.
func (k *Kernel) noteArrival(q *Proc, m *Message) {
	if q.state != stateRecv || !q.matches(m) {
		return
	}
	key := q.now
	if m.Arrival > key {
		key = m.Arrival
	}
	if q.heapIdx >= 0 {
		if key < q.key {
			k.heapDecrease(q, key)
		}
		return
	}
	k.heapPush(q, key)
}

// MatchAny matches every message.
func MatchAny(*Message) bool { return true }

// MatchSrcTag returns a match predicate for a (source, tag) pair; src or
// tag may be -1 to act as a wildcard, mirroring pvm_recv semantics.
func MatchSrcTag(src, tag int) func(*Message) bool {
	return func(m *Message) bool {
		return (src < 0 || m.Src == src) && (tag < 0 || m.Tag == tag)
	}
}

// Recv blocks until a message matching the predicate is deliverable and
// returns the earliest-arriving such message.  Waiting time is classified
// as SegIdle.  A nil match accepts any message.
func (p *Proc) Recv(match func(*Message) bool) *Message {
	if match == nil {
		match = MatchAny
	}
	p.match = match
	return p.recvWait()
}

// RecvSrcTag is Recv with the pvm_recv (source, tag) match inline — the
// hot receive shape — avoiding the per-call predicate closure.  Either
// may be -1 as a wildcard.
func (p *Proc) RecvSrcTag(src, tag int) *Message {
	p.match = nil
	p.matchSrc, p.matchTag = src, tag
	return p.recvWait()
}

// matches applies the pending receive criterion of a blocked process.
func (p *Proc) matches(m *Message) bool {
	if p.match != nil {
		return p.match(m)
	}
	return (p.matchSrc < 0 || m.Src == p.matchSrc) && (p.matchTag < 0 || m.Tag == p.matchTag)
}

func (p *Proc) recvWait() *Message {
	p.state = stateRecv
	// Fast path: a matching message is already queued and no other
	// process would be scheduled before this one at the delivery key, so
	// handing the token back would provably resume us immediately.
	var m *Message
	if best, ok := earliestMatch(p); ok {
		key := p.now
		if best.Arrival > key {
			key = best.Arrival
		}
		if p.k.soleRunnableAt(p, key) {
			p.removeMessage(best)
			p.state = stateRunning
			m = best
		}
	}
	if m == nil {
		p.yield()
		// The kernel has selected our earliest matching message and
		// stored it in p.got before resuming us.
		m = p.got
		p.got = nil
	}
	p.match = nil
	if m == nil {
		panic("vm: resumed from recv without a message")
	}
	p.Accept(m.Arrival, m.Bytes)
	return m
}

// Probe reports whether a matching message is already queued (regardless of
// its arrival time).  It does not advance time and does not block.
func (p *Proc) Probe(match func(*Message) bool) bool {
	if match == nil {
		match = MatchAny
	}
	for _, m := range p.mailbox {
		if match(m) {
			return true
		}
	}
	return false
}

// ProbeSrcTag is Probe with the (source, tag) match inline.
func (p *Proc) ProbeSrcTag(src, tag int) bool {
	for _, m := range p.mailbox {
		if (src < 0 || m.Src == src) && (tag < 0 || m.Tag == tag) {
			return true
		}
	}
	return false
}

// Barrier synchronizes the calling process with parties-1 other processes
// calling Barrier with the same key.  Timing follows the barrier rule
// (Arrive); a member that does not complete the party parks until the last
// arriver releases it.
func (p *Proc) Barrier(key string, parties int) {
	if parties <= 0 {
		panic("vm: barrier with no parties")
	}
	b := p.k.barriers[key]
	if b == nil {
		b = p.k.newBarrier(key, parties)
		p.k.barriers[key] = b
	}
	if b.parties != parties {
		panic(fmt.Sprintf("vm: barrier %q party count mismatch: %d vs %d", key, b.parties, parties))
	}
	var released bool
	b.members, released = p.Arrive(b.members, parties)
	if !released {
		p.state = stateBarrier
		p.yield()
		return
	}
	// Last arriver: everybody else is runnable again.
	for _, q := range b.members {
		if q != p {
			q.state = stateReady
			p.k.heapPush(q, q.now)
		}
	}
	delete(p.k.barriers, key)
	p.k.freeBarrier(b)
}

// Spawn creates a new process starting at the caller's current virtual
// time.  It may only be called while the kernel is running.  The returned
// id is valid immediately (e.g. as a Send destination).
func (p *Proc) Spawn(name string, compute ComputeModel, fn func(*Proc)) int {
	q := p.k.addProc(name, compute, fn)
	q.now = p.now
	p.k.startProc(q)
	p.k.heapPush(q, q.now)
	return q.id
}

// procStopped is the panic value that unwinds a stopped process.
type procStopped struct{}

// yield hands the execution token back to the kernel and blocks until the
// kernel resumes this process.  If the kernel stops the process instead —
// or already has, and a deferred call running during the unwind blocks
// again — yield panics with procStopped.
func (p *Proc) yield() {
	if !p.suspend(struct{}{}) {
		panic(procStopped{})
	}
}

type barrier struct {
	key     string
	parties int
	members []*Proc
}

// Kernel owns the processes of one simulation.
type Kernel struct {
	comm     CommModel
	tracer   Tracer
	faults   FaultModel
	procs    []*Proc
	seq      uint64
	barriers map[string]*barrier
	running  bool
	// ready is an indexed min-heap over runnable processes keyed by
	// (scheduling time, id); nDone counts finished processes so the run
	// loop never rescans k.procs.
	ready []*Proc
	nDone int
	// chanFree is the virtual time at which the shared communication
	// channel becomes free (star-topology contention model).
	chanFree Time
	// msgFree recycles delivered Messages so a steady-state send/recv
	// exchange allocates nothing.  Exactly one process holds the execution
	// token at a time, so the freelist needs no synchronization.
	msgFree []*Message
	// barFree recycles completed barrier records the same way.
	barFree []*barrier
}

// NewKernel creates a kernel with the given communication cost model
// (which may be nil for free communication) and optional tracer.
func NewKernel(comm CommModel, tracer Tracer) *Kernel {
	return &Kernel{
		comm:     comm,
		tracer:   tracer,
		barriers: make(map[string]*barrier),
	}
}

// SetFaults installs a fault model (nil disables injection).  It must be
// called before Run; a nil model leaves every timeline bit-identical to an
// injector-free kernel.
func (k *Kernel) SetFaults(fm FaultModel) {
	if k.running {
		panic("vm: SetFaults called while kernel is running")
	}
	k.faults = fm
}

// NewProc registers a process before the simulation starts.  The process
// begins at virtual time zero.
func (k *Kernel) NewProc(name string, compute ComputeModel, fn func(*Proc)) *Proc {
	if k.running {
		panic("vm: NewProc called while kernel is running; use Proc.Spawn")
	}
	return k.addProc(name, compute, fn)
}

func (k *Kernel) addProc(name string, compute ComputeModel, fn func(*Proc)) *Proc {
	p := &Proc{
		k:       k,
		id:      len(k.procs),
		name:    name,
		compute: compute,
		state:   stateReady,
		fn:      fn,
		heapIdx: -1,
	}
	k.procs = append(k.procs, p)
	return p
}

// startProc creates the coroutine backing p; it first runs when the kernel
// calls p.resume.
func (k *Kernel) startProc(p *Proc) {
	p.resume, p.stop = iter.Pull(func(suspend func(struct{}) bool) {
		p.suspend = suspend
		defer func() {
			// A stopped process ends here; any other panic carries on to
			// iter.Pull, which re-raises it in the caller of resume or stop.
			if r := recover(); r != nil && r != (procStopped{}) {
				panic(r)
			}
		}()
		p.fn(p)
	})
}

func (k *Kernel) proc(id int) *Proc {
	if id < 0 || id >= len(k.procs) {
		return nil
	}
	return k.procs[id]
}

func (k *Kernel) nextSeq() uint64 {
	k.seq++
	return k.seq
}

func (k *Kernel) newMessage() *Message {
	if n := len(k.msgFree); n > 0 {
		m := k.msgFree[n-1]
		k.msgFree = k.msgFree[:n-1]
		return m
	}
	return &Message{}
}

// Recycle returns a delivered message to the kernel's freelist so a later
// Send can reuse it.  The receiver may only call it — from its own
// coroutine, while holding the execution token — after it has extracted
// everything it needs from the message, and must not touch m afterwards.
func (k *Kernel) Recycle(m *Message) {
	if m == nil {
		return
	}
	m.Payload = nil
	k.msgFree = append(k.msgFree, m)
}

func (k *Kernel) newBarrier(key string, parties int) *barrier {
	if n := len(k.barFree); n > 0 {
		b := k.barFree[n-1]
		k.barFree = k.barFree[:n-1]
		b.key, b.parties = key, parties
		return b
	}
	return &barrier{key: key, parties: parties}
}

func (k *Kernel) freeBarrier(b *barrier) {
	b.members = b.members[:0]
	k.barFree = append(k.barFree, b)
}

// Proc returns the process with the given id, or nil.
func (k *Kernel) Proc(id int) *Proc { return k.proc(id) }

// Procs returns all processes registered so far.
func (k *Kernel) Procs() []*Proc { return k.procs }

// Ready-queue: an indexed binary min-heap over runnable processes.
// Ready processes are keyed by their local time; receive-blocked
// processes enter when a matching message is queued, keyed by
// max(local, earliest matching arrival).  Ties break by process id,
// matching the original linear scan's first-minimum selection, so
// schedules are bit-identical to the O(n)-scan kernel.

func (k *Kernel) heapLess(i, j int) bool {
	a, b := k.ready[i], k.ready[j]
	return a.key < b.key || (a.key == b.key && a.id < b.id)
}

func (k *Kernel) heapSwap(i, j int) {
	k.ready[i], k.ready[j] = k.ready[j], k.ready[i]
	k.ready[i].heapIdx = i
	k.ready[j].heapIdx = j
}

func (k *Kernel) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !k.heapLess(i, parent) {
			return
		}
		k.heapSwap(i, parent)
		i = parent
	}
}

func (k *Kernel) heapDown(i int) {
	n := len(k.ready)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && k.heapLess(r, l) {
			min = r
		}
		if !k.heapLess(min, i) {
			return
		}
		k.heapSwap(i, min)
		i = min
	}
}

func (k *Kernel) heapPush(p *Proc, key Time) {
	if p.heapIdx >= 0 {
		panic(fmt.Sprintf("vm: proc %d already enqueued", p.id))
	}
	p.key = key
	p.heapIdx = len(k.ready)
	k.ready = append(k.ready, p)
	k.heapUp(p.heapIdx)
}

func (k *Kernel) heapPop() *Proc {
	p := k.ready[0]
	last := len(k.ready) - 1
	k.heapSwap(0, last)
	k.ready[last] = nil
	k.ready = k.ready[:last]
	if last > 0 {
		k.heapDown(0)
	}
	p.heapIdx = -1
	return p
}

func (k *Kernel) heapDecrease(p *Proc, key Time) {
	p.key = key
	k.heapUp(p.heapIdx)
}

// soleRunnable reports whether no other process would be scheduled
// before p if p yielded at its current time (strictly: every enqueued
// process has a larger (key, id) than (p.now, p.id)).
func (k *Kernel) soleRunnable(p *Proc) bool {
	return k.soleRunnableAt(p, p.now)
}

func (k *Kernel) soleRunnableAt(p *Proc, key Time) bool {
	if len(k.ready) == 0 {
		return true
	}
	top := k.ready[0]
	return top.key > key || (top.key == key && top.id > p.id)
}

// Quiescent reports whether no process is currently enqueued as
// runnable.  Called by the process holding the execution token, it
// means every other live process is parked — the precondition for the
// level-of-detail macro replay in the layers above.
func (k *Kernel) Quiescent() bool { return len(k.ready) == 0 }

// FaultFree reports whether the kernel is provably free of fault
// injection: either no fault model is installed, or the installed model
// declares itself inert via an optional `FaultFree() bool` method (the
// seeded fault.Plan does when all rates are zero, because its hooks
// then draw nothing from the RNG stream).
func (k *Kernel) FaultFree() bool {
	if k.faults == nil {
		return true
	}
	if ff, ok := k.faults.(interface{ FaultFree() bool }); ok {
		return ff.FaultFree()
	}
	return false
}

// earliestMatch finds the queued matching message with the smallest
// (arrival, seq), removing nothing.
func earliestMatch(p *Proc) (*Message, bool) {
	var best *Message
	for _, m := range p.mailbox {
		if !p.matches(m) {
			continue
		}
		if best == nil || m.Arrival < best.Arrival ||
			(m.Arrival == best.Arrival && m.seq < best.seq) {
			best = m
		}
	}
	return best, best != nil
}

// takeEarliestMatch removes and returns the earliest matching message.
func takeEarliestMatch(p *Proc) *Message {
	best, ok := earliestMatch(p)
	if !ok {
		return nil
	}
	p.removeMessage(best)
	return best
}

// removeMessage drops m from the mailbox.  Delivery order is decided by
// (arrival, seq), never by mailbox position, so the O(1) swap-remove is
// safe.
func (p *Proc) removeMessage(m *Message) {
	for i, q := range p.mailbox {
		if q == m {
			last := len(p.mailbox) - 1
			p.mailbox[i] = p.mailbox[last]
			p.mailbox[last] = nil
			p.mailbox = p.mailbox[:last]
			return
		}
	}
}

// DeadlockError reports a simulation that stopped with live but
// non-runnable processes.
type DeadlockError struct {
	States []string
}

func (e *DeadlockError) Error() string {
	return "vm: deadlock: " + strings.Join(e.States, ", ")
}

// Run executes the simulation until every process has finished.  It
// returns a DeadlockError if live processes remain but none is runnable
// (e.g. a Recv that can never be satisfied or an incomplete barrier).  A
// panic in a process propagates out of Run.  However Run exits, no
// process coroutine outlives it.
func (k *Kernel) Run() error {
	if k.running {
		panic("vm: kernel already running")
	}
	k.running = true
	defer func() { k.running = false }()
	defer k.stopProcs()
	for _, p := range k.procs {
		k.startProc(p)
		k.heapPush(p, p.now)
	}
	// Note: k.procs may grow while a process runs (Spawn); the loop
	// bound re-evaluates because the kernel only runs while holding the
	// token.
	for k.nDone < len(k.procs) {
		if len(k.ready) == 0 {
			return k.deadlock()
		}
		next := k.heapPop()
		if next.state == stateRecv {
			next.got = takeEarliestMatch(next)
		}
		next.state = stateRunning
		if _, alive := next.resume(); !alive {
			next.state = stateDone
		}
		k.park(next)
	}
	return nil
}

// stopProcs unwinds every unfinished process.  The stops are deferred so
// that each one runs even if an earlier one re-raises a panic from a
// deferred call of the process it unwound.
func (k *Kernel) stopProcs() {
	for _, p := range k.procs {
		if p.state != stateDone {
			defer p.stop()
		}
	}
}

// park re-enqueues a process that just handed the token back, according
// to the state it blocked in.
func (k *Kernel) park(p *Proc) {
	switch p.state {
	case stateRunning:
		// A process that yields without blocking stays ready.
		p.state = stateReady
		k.heapPush(p, p.now)
	case stateRecv:
		// Enqueue only if a matching message is already waiting; later
		// arrivals enqueue it through noteArrival.
		if best, ok := earliestMatch(p); ok {
			key := p.now
			if best.Arrival > key {
				key = best.Arrival
			}
			k.heapPush(p, key)
		}
	case stateDone:
		k.nDone++
	case stateBarrier:
		// Woken by the last arriver, which re-enqueues all members.
	}
}

func (k *Kernel) deadlock() error {
	var states []string
	for _, p := range k.procs {
		if p.state == stateDone {
			continue
		}
		states = append(states, fmt.Sprintf("%s(%d): %s t=%.6g mailbox=%d",
			p.name, p.id, p.state, p.now, len(p.mailbox)))
	}
	sort.Strings(states)
	return &DeadlockError{States: states}
}

// MaxTime returns the largest local time over all processes — the virtual
// makespan of the simulation.
func (k *Kernel) MaxTime() Time {
	var t Time
	for _, p := range k.procs {
		if p.now > t {
			t = p.now
		}
	}
	return t
}
