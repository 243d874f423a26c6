package core

import (
	"time"

	"mdcc/internal/record"
	"mdcc/internal/topology"
	"mdcc/internal/trace"
)

// Mode selects which protocol variant runs — the configurations
// compared in the paper's §5.3 ("MDCC", "Fast", "Multi").
type Mode int

// Protocol variants.
const (
	// ModeMDCC is the full protocol: fast ballots plus commutative
	// updates with quorum demarcation.
	ModeMDCC Mode = iota
	// ModeFast uses fast ballots but no commutative support;
	// workloads express deltas as physical read-modify-writes.
	ModeFast
	// ModeMulti runs everything through classic ballots with stable
	// per-record masters (Multi-Paxos; Phase 1 skipped).
	ModeMulti
)

// String names the mode as in the paper's figures.
func (m Mode) String() string {
	switch m {
	case ModeMDCC:
		return "MDCC"
	case ModeFast:
		return "Fast"
	case ModeMulti:
		return "Multi"
	default:
		return "mode?"
	}
}

// Config parameterizes coordinators and storage nodes. The zero value
// is not usable; call Defaults or fill every field.
type Config struct {
	Mode Mode

	// Gamma is the number of instances forced classic after a
	// collision before fast ballots are retried (paper default 100).
	Gamma int

	// MasterDC maps a record to the data center whose replica acts
	// as the record's master (leader). Nil means
	// topology.DefaultMasterDC, uniform by key hash.
	MasterDC func(record.Key) topology.DC

	// Constraints are the value constraints acceptors enforce
	// (matched to attributes by name across all records).
	Constraints []record.Constraint

	// OptionTimeout is how long a coordinator waits for an option to
	// be learned before asking the record's leader to recover.
	OptionTimeout time.Duration

	// RecoveryRetry is the spacing of repeated recovery attempts
	// (also switching to fallback leaders in other DCs).
	RecoveryRetry time.Duration

	// PendingTimeout is how old an unresolved option must be before
	// a storage node starts dangling-transaction recovery (§3.2.3).
	// Zero disables the sweep.
	PendingTimeout time.Duration

	// ReadTimeout bounds local reads before retrying another DC.
	ReadTimeout time.Duration

	// SyncInterval is the anti-entropy period: how often a storage
	// node exchanges a chunk of committed state with a random peer
	// replica to catch up after outages (§3.2.3's background
	// bulk-copy). Zero disables; Defaults sets SyncEvery.
	SyncInterval time.Duration

	// DecidedRetention is how long a settled option's entry stays in
	// the per-record decided log before becoming eligible for release
	// (zero = 2 min). It is a lower bound, not a lifetime: an entry
	// with a lineage identity is additionally held until every peer
	// replica's summary is known to contain it, so shrinking this can
	// cost a recovery round trip but can never lose a forked apply.
	// Only a log longer than 512 entries is compacted, so an ordinary
	// record's entries are never released, whatever this says (see
	// decidedLog).
	DecidedRetention time.Duration

	// Tracer, when non-nil, is the transaction flight recorder every
	// coordinator and storage node appends span events to (see
	// internal/trace). Nil disables recording at the cost of one nil
	// check per instrumentation point.
	Tracer *trace.Recorder

	// CheckpointInterval is how often a durable storage node writes a
	// full-state snapshot (kv + escrow bases + lineage summaries +
	// decided cache) and truncates WAL segments an older snapshot
	// covers, bounding crash-recovery replay to the tail since the last
	// checkpoint (see checkpoint.go / DESIGN.md §12). Zero disables:
	// recovery then replays the whole log. Memory-only nodes ignore it.
	CheckpointInterval time.Duration
}

// SyncEvery is how often a storage node asks a peer replica for a chunk
// of committed state (paper §3.2.3's background catch-up).
const SyncEvery = 750 * time.Millisecond

// BatchWindow is how long an outbound message may wait for company
// bound to the same node: a coordinator's visibility lingers at most this
// long for its next send to the replica (Coordinator.vis), and a
// gateway's coordinator lets every message wait this long by default.
const BatchWindow = 2 * time.Millisecond

// batchMax caps the messages one replica's queue holds: a queue that
// reaches it leaves at once, as one Batch envelope.
const batchMax = 64

// Defaults returns a Config tuned for the simulated 5-DC WAN (option
// timeouts comfortably above the ~540 ms worst round trip), with anti-entropy.
func Defaults(mode Mode) Config {
	return Config{
		Mode:           mode,
		Gamma:          100,
		OptionTimeout:  1200 * time.Millisecond,
		RecoveryRetry:  800 * time.Millisecond,
		PendingTimeout: 5 * time.Second,
		ReadTimeout:    600 * time.Millisecond,
		SyncInterval:   SyncEvery,
	}
}

// masterDC resolves the master data center for a key.
func (c Config) masterDC(key record.Key) topology.DC {
	if c.MasterDC != nil {
		return c.MasterDC(key)
	}
	return topology.DefaultMasterDC(key)
}

// ConstraintFor returns the constraint on an attribute name, if any.
func (c Config) ConstraintFor(attr string) (record.Constraint, bool) {
	for _, con := range c.Constraints {
		if con.Attr == attr {
			return con, true
		}
	}
	return record.Constraint{}, false
}
