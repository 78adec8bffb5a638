// Package supervise implements the self-healing supervisor of the
// cluster: a small state machine that keeps a fixed-width server fleet
// at its configured width by respawning a replacement task for every
// server that dies, within a configurable respawn budget.
//
// The supervisor does not probe liveness itself.  Death signals are
// derived from the machinery the lower layers already run — Sciddle call
// timeouts with idempotent retries on the network fabric (which in turn
// ride on the transport's receive deadlines and heartbeats), and
// administrative kill schedules on the deterministic fabrics, where
// replies cannot be lost and a timeout would never fire.  The client
// reports each detected death through OnDeath; the supervisor decides
// the rung of the recovery ladder:
//
//	heal    — budget permitting, spawn a replacement that inherits the
//	          dead server's rank in the pair distribution, so the
//	          restored fleet computes the exact same partial sums;
//	degrade — budget exhausted: refuse, and let the caller shrink the
//	          fleet onto the survivors (PR 2's graceful degradation).
//
// The third rung — restart from a periodic checkpoint — lives above the
// supervisor, in md.Options.CheckpointEvery and the scenario runner's two
// legs (a restart event).
package supervise

import (
	"fmt"

	"opalperf/internal/telemetry"
)

// State is the supervisor's position in the recovery ladder.
type State int

const (
	// Healthy: the fleet is at its configured width.
	Healthy State = iota
	// Healing: a death has been observed and a replacement is being
	// spawned and re-initialized; further deaths cascade within the same
	// healing window.
	Healing
	// Degraded: the respawn budget is exhausted; subsequent deaths
	// shrink the fleet instead of healing it.  Terminal.
	Degraded
)

var stateNames = [...]string{"healthy", "healing", "degraded"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// SpawnFunc starts one replacement server task and returns its TID.
// The argument is the zero-based replacement counter (the k-th respawn
// of the run), which callers use to key chaos kill switches past the
// original fleet's indices.
type SpawnFunc func(replacement int) int

// Options configure a supervisor.
type Options struct {
	// Scope is the run's telemetry: its journal carries the transitions and
	// its health tracks the rung.  nil: a fresh scope stamped with the
	// process run ID.
	Scope *telemetry.Scope
	// Width is the configured fleet width p; every heal restores it.
	Width int
	// MaxRespawns bounds the total replacements the supervisor may spawn
	// over the run.  <= 0 means unlimited.
	MaxRespawns int
	// Spawn starts one replacement task.  Required.
	Spawn SpawnFunc
}

// Supervisor tracks fleet health and spawns replacements.  It is driven
// from the single client goroutine that detects deaths and is therefore
// unsynchronized.
type Supervisor struct {
	opts     Options
	state    State
	respawns int
	perRank  []int // respawn count per rank
	lost     []int // TIDs of every server declared dead
}

// New creates a supervisor for a fleet of opts.Width servers.
func New(opts Options) *Supervisor {
	if opts.Width <= 0 {
		panic(fmt.Sprintf("supervise: fleet width must be positive, have %d", opts.Width))
	}
	if opts.Spawn == nil {
		panic("supervise: Spawn is required")
	}
	if opts.Scope == nil {
		opts.Scope = &telemetry.Scope{ID: telemetry.Run()}
	}
	s := &Supervisor{opts: opts, perRank: make([]int, opts.Width)}
	s.publishState()
	return s
}

// setState performs a state transition and publishes it to the telemetry
// plane: the gauge and the run's health reflect the new rung, the journal
// records the transition, and entering Degraded trips the flight-recorder
// dump.
func (s *Supervisor) setState(to State) {
	if s.state == to {
		return
	}
	from := s.state
	s.state = to
	s.publishState()
	s.opts.Scope.Emit("supervisor_"+to.String(), telemetry.F{
		"from": from.String(), "respawns": s.respawns, "deaths": len(s.lost),
	})
}

func (s *Supervisor) publishState() {
	telemetry.SupState.Set(int64(s.state))
	s.opts.Scope.SetHealth(s.state.String(), s.state != Degraded)
}

// State returns the supervisor's current rung.
func (s *Supervisor) State() State { return s.state }

// Respawns returns the total replacements spawned so far.
func (s *Supervisor) Respawns() int { return s.respawns }

// RespawnsOf returns how many times the server holding rank has been
// replaced.
func (s *Supervisor) RespawnsOf(rank int) int {
	if rank < 0 || rank >= len(s.perRank) {
		return 0
	}
	return s.perRank[rank]
}

// Lost returns the TIDs of every server declared dead, in death order.
func (s *Supervisor) Lost() []int { return append([]int(nil), s.lost...) }

// CanRespawn reports whether the respawn budget permits another heal.
func (s *Supervisor) CanRespawn() bool {
	if s.state == Degraded {
		return false
	}
	return s.opts.MaxRespawns <= 0 || s.respawns < s.opts.MaxRespawns
}

// OnDeath records that the server holding rank (with task id tid)
// stopped answering and, budget permitting, spawns its replacement and
// returns the new TID.  ok == false means the budget is exhausted: the
// supervisor enters Degraded for good and the caller should shrink the
// fleet instead (graceful degradation).
func (s *Supervisor) OnDeath(rank, tid int) (newTID int, ok bool) {
	if rank < 0 || rank >= s.opts.Width {
		panic(fmt.Sprintf("supervise: rank %d out of range for width %d", rank, s.opts.Width))
	}
	if !s.CanRespawn() {
		s.setState(Degraded)
		return 0, false
	}
	s.lost = append(s.lost, tid)
	telemetry.SupDeaths.Add(1)
	s.setState(Healing)
	newTID = s.opts.Spawn(s.respawns)
	s.respawns++
	s.perRank[rank]++
	telemetry.SupRespawns.Add(1)
	return newTID, true
}

// Healed marks the end of a healing window: the replacement is
// re-initialized, the fleet is back at its configured width.
func (s *Supervisor) Healed() {
	if s.state == Healing {
		s.setState(Healthy)
	}
}
