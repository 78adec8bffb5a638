// Package fault is the seeded, deterministic fault-injection plane of the
// reproduction.  It plugs into both fabrics:
//
//   - on the simulated fabric, Plan implements vm.FaultModel: message
//     drops (recovered by retransmission after a retry timeout), spurious
//     duplicate transmissions, in-network delays, task crash-recovery
//     windows and barrier stragglers are injected as deterministic
//     virtual-time perturbations.  Because the discrete-event kernel hands
//     the execution token over in a deterministic order, the pseudo-random
//     stream is consumed in the same order every run: one seed is one
//     fault schedule, bit for bit;
//
//   - on the TCP fabric, Conn (see netconn.go) wraps a net.Conn with
//     injected latency, partial writes and connection resets, driving the
//     transport's hardening paths (reconnect, session resumption, call
//     timeouts) in chaos tests.
//
// The design follows the observation of Cornebize & Legrand that injected
// variability must be a first-class, *reproducible* simulation input for a
// performance model to be trustworthy: a fault here never corrupts or
// reorders a payload, it only stretches the timeline, so the physics of a
// faulted run stays bit-identical to the fault-free run and every run
// terminates.  The stretch is attributed to vm.SegRecovery, making the
// cost of recovery a first-class component of the execution-time
// breakdown.
package fault

import "opalperf/internal/telemetry"

// Config parameterizes a fault plan.  All rates are probabilities in
// [0, 1]; all times are virtual seconds.  The zero Config injects nothing.
type Config struct {
	// Seed selects the fault schedule.  Two plans with equal Config
	// produce identical decision streams.
	Seed uint64

	// DropRate is the probability that a message's first copy is lost in
	// the network.  The transport recovers it by retransmission, so the
	// receiver sees the message RetryTimeout later.
	DropRate float64
	// DupRate is the probability of a spurious duplicate transmission: the
	// duplicate occupies the shared communication channel once more, and
	// the cost is charged to the sender as recovery overhead.
	DupRate float64
	// DelayRate is the probability of an in-network delay of DelayMean
	// (scaled by a deterministic factor in [0.5, 1.5)).
	DelayRate float64
	// CrashRate is the probability, per compute burst, that the task
	// crashes and is restarted from a checkpoint on a hot spare,
	// freezing it for RecoveryTime.
	CrashRate float64
	// StragglerRate is the probability, per barrier entry, that the task
	// straggles by up to StraggleTime before reaching the barrier.
	StragglerRate float64

	// RetryTimeout is the transport's retransmission timeout (the cost of
	// one drop).  Default 2 ms.
	RetryTimeout float64
	// DelayMean is the mean injected network delay.  Default 0.5 ms.
	DelayMean float64
	// RecoveryTime is the crash-recovery window.  Default 10 ms.
	RecoveryTime float64
	// StraggleTime is the maximum straggler delay.  Default 1 ms.
	StraggleTime float64
}

func (c Config) withDefaults() Config {
	if c.RetryTimeout == 0 {
		c.RetryTimeout = 2e-3
	}
	if c.DelayMean == 0 {
		c.DelayMean = 5e-4
	}
	if c.RecoveryTime == 0 {
		c.RecoveryTime = 1e-2
	}
	if c.StraggleTime == 0 {
		c.StraggleTime = 1e-3
	}
	return c
}

// Uniform returns a Config injecting every fault kind at the same rate —
// the shape the chaos sweep and the -fault-rate flag of cmd/opal use.
func Uniform(seed uint64, rate float64) Config {
	return Config{
		Seed:          seed,
		DropRate:      rate,
		DupRate:       rate,
		DelayRate:     rate,
		CrashRate:     rate,
		StragglerRate: rate,
	}
}

// Stats counts the faults a plan has injected so far.
type Stats struct {
	Drops      int
	Dups       int
	Delays     int
	Crashes    int
	Stragglers int
}

// Total returns the total number of injected faults.
func (s Stats) Total() int {
	return s.Drops + s.Dups + s.Delays + s.Crashes + s.Stragglers
}

// Plan is one deterministic fault schedule.  It implements vm.FaultModel.
// A Plan is stateful (it owns the pseudo-random stream) and is not safe
// for concurrent use; the discrete-event kernel consults it only from the
// process holding the execution token, which serializes all calls.
type Plan struct {
	cfg   Config
	rng   splitmix
	stats Stats
	// muted gates injection without consuming the pseudo-random stream:
	// while muted every hook returns "no fault" before drawing, so a
	// plan activated only inside step windows (scenario inject_fault
	// events) stays deterministic — the stream position is a pure
	// function of the config and the active windows.  Toggled only from
	// the client while it holds the execution token, like every other
	// plan call.
	muted bool
	// Per-kind telemetry counters, resolved once at plan creation so the
	// injection hot paths skip the vec lookup.  Counting happens outside
	// the pseudo-random stream, so telemetry can never perturb a schedule.
	cDrops, cDups, cDelays, cCrashes, cStragglers *telemetry.Counter
}

// NewPlan creates a plan for the given config.  Each simulation run needs
// its own fresh plan: replaying a seed means re-creating the plan.
func NewPlan(cfg Config) *Plan {
	cfg = cfg.withDefaults()
	return &Plan{
		cfg:         cfg,
		rng:         newSplitmix(cfg.Seed),
		cDrops:      telemetry.FaultsInjected.With("drop"),
		cDups:       telemetry.FaultsInjected.With("dup"),
		cDelays:     telemetry.FaultsInjected.With("delay"),
		cCrashes:    telemetry.FaultsInjected.With("crash"),
		cStragglers: telemetry.FaultsInjected.With("straggler"),
	}
}

// Stats returns the counts of faults injected so far.
func (p *Plan) Stats() Stats { return p.stats }

// SetActive mutes or unmutes the plan: while inactive, every hook reports
// "no fault" without drawing from the pseudo-random stream.  The scenario
// engine uses it to compile timed inject_fault windows; a plan is active
// by default.  Call it only from the goroutine holding the execution
// token (the client's step hooks), like every other plan method.
func (p *Plan) SetActive(on bool) { p.muted = !on }

// FaultFree reports whether the plan provably injects nothing: with all
// rates zero every hook returns before drawing from the pseudo-random
// stream, so the plan is indistinguishable from no plan at all.  The
// kernel consults this (via vm.Kernel.FaultFree) to decide whether
// level-of-detail macro replay may skip the per-event fault hooks.
func (p *Plan) FaultFree() bool {
	c := p.cfg
	return c.DropRate <= 0 && c.DupRate <= 0 && c.DelayRate <= 0 &&
		c.CrashRate <= 0 && c.StragglerRate <= 0
}

// chance draws one decision at probability rate.  Every enabled fault kind
// draws in a fixed order per hook, so the stream position depends only on
// the config and the (deterministic) hook call sequence.
func (p *Plan) chance(rate float64) bool {
	if rate <= 0 {
		return false
	}
	return p.rng.float64() < rate
}

// scale returns a deterministic factor in [0.5, 1.5).
func (p *Plan) scale() float64 { return 0.5 + p.rng.float64() }

// SendFault implements vm.FaultModel: consulted once per simulated Send.
func (p *Plan) SendFault(src, dst, bytes int) (delay, resend float64) {
	if p.muted {
		return 0, 0
	}
	if p.chance(p.cfg.DropRate) {
		p.stats.Drops++
		p.cDrops.Add(1)
		delay += p.cfg.RetryTimeout * p.scale()
	}
	if p.chance(p.cfg.DelayRate) {
		p.stats.Delays++
		p.cDelays.Add(1)
		delay += p.cfg.DelayMean * p.scale()
	}
	if p.chance(p.cfg.DupRate) {
		p.stats.Dups++
		p.cDups.Add(1)
		// The duplicate retransmits the same volume: charge roughly the
		// per-message cost again.  The kernel prices the resend as extra
		// occupancy of the shared channel, so the magnitude here is a
		// fraction of the retry timeout standing in for the wire time.
		resend = p.cfg.RetryTimeout * 0.5 * p.scale()
	}
	return delay, resend
}

// ComputeFault implements vm.FaultModel: consulted once per compute burst.
func (p *Plan) ComputeFault(proc int) float64 {
	if p.muted || !p.chance(p.cfg.CrashRate) {
		return 0
	}
	p.stats.Crashes++
	p.cCrashes.Add(1)
	return p.cfg.RecoveryTime * p.scale()
}

// BarrierFault implements vm.FaultModel: consulted once per barrier entry.
func (p *Plan) BarrierFault(proc int) float64 {
	if p.muted || !p.chance(p.cfg.StragglerRate) {
		return 0
	}
	p.stats.Stragglers++
	p.cStragglers.Add(1)
	return p.cfg.StraggleTime * p.scale()
}
