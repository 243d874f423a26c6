package ring

import "fmt"

// Phases of a live shard move, in order.
const (
	PhaseIdle      = "idle"
	PhaseFreeze    = "freeze"
	PhaseBootstrap = "bootstrap"
	PhasePublish   = "publish"
	PhaseDone      = "done"
)

// Hooks are the environment-specific executors a Mover drives. The
// ring package owns the sequencing and epoch bookkeeping; the hooks
// own the cluster mechanics (which processes to freeze, which
// anti-entropy paths to pull through). Each hook receives the staged
// next ring and a ready callback it must invoke exactly once when its
// phase's postcondition holds; hooks are free to poll, retry across
// node restarts, and take as long as the cluster needs.
type Hooks struct {
	// Freeze must fence admission at every source gateway for keys
	// whose owner changes under next, then drain: call ready only when
	// no in-flight transaction touches a moving key and every live
	// source replica has settled its outstanding options on them.
	Freeze func(next *Ring, ready func())
	// Bootstrap must bring every destination replica to the moving
	// shards' current value+version+lineage (the anti-entropy adoption
	// path), then call ready with the number of keys adopted.
	Bootstrap func(next *Ring, ready func(moved int))
	// Publish runs after the table has installed the next map: lift
	// the admission freeze and re-home per-key routing state.
	Publish func(next *Ring)
}

// MoveStats summarizes one completed move.
type MoveStats struct {
	Epoch     Epoch // the published epoch
	MovedKeys int   // keys adopted by destination replicas
}

// Mover sequences a live shard move through its three phases:
//
//  1. freeze — admission for moving shards is fenced at the source
//     gateways and in-flight options drain or force-settle;
//  2. bootstrap — destination replicas adopt the moving shards via
//     the anti-entropy value+version+summary path;
//  3. publish — the new epoch is installed in the table and routing
//     state re-homes.
//
// One move runs at a time; Move reports false while one is in flight.
type Mover struct {
	t     *Table
	h     Hooks
	phase string
	next  *Ring
	done  func(MoveStats)
}

// NewMover builds a mover over a cluster's ring table.
func NewMover(t *Table, h Hooks) *Mover {
	return &Mover{t: t, h: h, phase: PhaseIdle}
}

// Phase returns the in-flight move's phase (PhaseIdle when none).
func (mv *Mover) Phase() string { return mv.phase }

// Move stages next and starts the three-phase sequence; done (may be
// nil) fires after publish. Returns an error when a move is already in
// flight or next does not supersede the current epoch.
func (mv *Mover) Move(next Map, done func(MoveStats)) error {
	if mv.phase != PhaseIdle && mv.phase != PhaseDone {
		return fmt.Errorf("ring: move to epoch %d already in phase %s", mv.next.Epoch(), mv.phase)
	}
	if next.Epoch <= mv.t.Epoch() {
		return fmt.Errorf("ring: stale move target epoch %d (current %d)", next.Epoch, mv.t.Epoch())
	}
	mv.next = Compile(next)
	mv.done = done
	mv.phase = PhaseFreeze
	mv.h.Freeze(mv.next, mv.frozen)
	return nil
}

func (mv *Mover) frozen() {
	if mv.phase != PhaseFreeze {
		return
	}
	mv.phase = PhaseBootstrap
	mv.h.Bootstrap(mv.next, mv.bootstrapped)
}

func (mv *Mover) bootstrapped(moved int) {
	if mv.phase != PhaseBootstrap {
		return
	}
	mv.phase = PhasePublish
	mv.t.Install(mv.next.Map())
	if mv.h.Publish != nil {
		mv.h.Publish(mv.next)
	}
	mv.phase = PhaseDone
	if mv.done != nil {
		mv.done(MoveStats{Epoch: mv.next.Epoch(), MovedKeys: moved})
	}
}
