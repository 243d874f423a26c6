// Package check validates consistency invariants over recorded
// transaction histories: wrap every client of a run in a History
// recorder, then Validate the final database state against what the
// committed operations permit. It machine-checks the guarantees
// DESIGN.md §5 claims — no lost updates, atomic durability,
// constraint safety, conservation of commutative deltas — and is used
// by integration and property tests.
package check

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"mdcc/internal/mtx"
	"mdcc/internal/record"
)

// Op is one recorded transaction.
type Op struct {
	Seq       int64
	Client    int
	Updates   []record.Update
	Committed bool
	// Unknown marks an op whose outcome was never acknowledged — the
	// client-side process (e.g. a gateway) died with the ack in flight.
	// The protocol still settles the transaction (the dangling-option
	// sweep forces a decision), so the state may or may not contain
	// its effects; Validate bounds the invariants accordingly.
	Unknown bool
}

// History collects operations from all wrapped clients of a run.
// Safe for concurrent use.
type History struct {
	mu    sync.Mutex
	ops   []Op
	reads []ReadObs
	seq   int64
}

// New returns an empty history.
func New() *History { return &History{} }

// Ops returns a copy of the recorded operations.
func (h *History) Ops() []Op {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Op(nil), h.ops...)
}

// Client wraps a client so its commits are recorded.
func (h *History) Client(id int, inner mtx.Client) mtx.Client {
	return &recordingClient{h: h, id: id, inner: inner}
}

type recordingClient struct {
	h     *History
	id    int
	inner mtx.Client
}

func (rc *recordingClient) Read(key record.Key, cb func(record.Value, record.Version, bool)) {
	rc.inner.Read(key, cb)
}

func (rc *recordingClient) Commit(updates []record.Update, done func(bool)) {
	ups := append([]record.Update(nil), updates...)
	rc.inner.Commit(updates, func(ok bool) {
		rc.h.Record(rc.id, ups, ok)
		done(ok)
	})
}

// Record logs one acknowledged transaction outcome directly (for
// harness clients that cannot route through a recordingClient — e.g.
// gateway clients that must divert unknown-outcome errors to Orphan).
func (h *History) Record(client int, updates []record.Update, committed bool) {
	h.mu.Lock()
	h.seq++
	h.ops = append(h.ops, Op{
		Seq: h.seq, Client: client,
		Updates:   append([]record.Update(nil), updates...),
		Committed: committed,
	})
	h.mu.Unlock()
}

// Orphan records an op whose outcome will never be acknowledged (the
// submitting tier died mid-flight). Harnesses call this instead of
// letting the op vanish from the history, which would make exact
// version/conservation accounting flag the op's possible effects as
// corruption.
func (h *History) Orphan(client int, updates []record.Update) {
	h.mu.Lock()
	h.seq++
	h.ops = append(h.ops, Op{
		Seq: h.seq, Client: client,
		Updates: append([]record.Update(nil), updates...),
		Unknown: true,
	})
	h.mu.Unlock()
}

// ReadObs is one observed read in a session-guaranteed client's
// history (recorded only for clients that request floored reads —
// plain read-committed reads have no ordering obligation to check).
type ReadObs struct {
	Seq     int64
	Client  int
	Key     record.Key
	Version record.Version
	Exists  bool
}

// ObserveRead records a successful floored read. The shared sequence
// counter interleaves reads with the client's commits, so per-client
// program order is recoverable for the session-guarantee checks.
func (h *History) ObserveRead(client int, key record.Key, ver record.Version, exists bool) {
	h.mu.Lock()
	h.seq++
	h.reads = append(h.reads, ReadObs{Seq: h.seq, Client: client, Key: key, Version: ver, Exists: exists})
	h.mu.Unlock()
}

// Reads returns a copy of the recorded read observations.
func (h *History) Reads() []ReadObs {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]ReadObs(nil), h.reads...)
}

// ValidateSessionReads checks the §4.2 session guarantees over the
// recorded reads, per client in program order (clients are closed
// loops, so the shared sequence numbers order each client's ops):
//
//   - Monotonic reads: a client's successive reads of a key never
//     observe a version lower than one it already observed.
//   - Read-your-writes: after a client's acknowledged committed
//     physical write of a key at read-version v (producing v+1), its
//     later reads of that key observe version >= v+1.
//
// Unacknowledged (unknown-outcome) writes impose no floor — the
// client never learned they committed — and commutative deltas
// produce no client-known version, so neither raises expectations.
// These guarantees are exactly what the gateway read tier must
// preserve through feed lag, gaps, and gateway crashes: a violation
// means a stale materialized value was served past a session floor.
func (h *History) ValidateSessionReads() []error {
	type ev struct {
		seq  int64
		read bool
		ver  record.Version // read: observed; write: floor (vread+1)
		key  record.Key
	}
	byClient := make(map[int][]ev)
	for _, op := range h.Ops() {
		if !op.Committed || op.Unknown {
			continue
		}
		for _, up := range op.Updates {
			if up.Kind == record.KindPhysical {
				byClient[op.Client] = append(byClient[op.Client],
					ev{seq: op.Seq, key: up.Key, ver: up.ReadVersion + 1})
			}
		}
	}
	for _, r := range h.Reads() {
		if !r.Exists {
			continue // failed/absent reads carry no version to order
		}
		byClient[r.Client] = append(byClient[r.Client],
			ev{seq: r.Seq, read: true, key: r.Key, ver: r.Version})
	}
	clients := make([]int, 0, len(byClient))
	for c := range byClient {
		clients = append(clients, c)
	}
	sort.Ints(clients)
	var errs []error
	for _, c := range clients {
		evs := byClient[c]
		sort.Slice(evs, func(i, j int) bool { return evs[i].seq < evs[j].seq })
		floor := make(map[record.Key]record.Version)
		for _, e := range evs {
			if e.read {
				if e.ver < floor[e.key] {
					errs = append(errs, fmt.Errorf(
						"check: client %d read %s at version %d after observing/writing version %d (session guarantee violated)",
						c, e.key, e.ver, floor[e.key]))
				}
			}
			if e.ver > floor[e.key] {
				floor[e.key] = e.ver
			}
		}
	}
	return errs
}

// Unknowns counts recorded unknown-outcome ops.
func (h *History) Unknowns() int {
	n := 0
	for _, op := range h.Ops() {
		if op.Unknown {
			n++
		}
	}
	return n
}

// FinalState reads the authoritative end-of-run state of a key
// (typically from a storage replica after quiescence).
type FinalState func(key record.Key) (val record.Value, ver record.Version, exists bool)

// Validate checks the history against the final state. initial maps
// preloaded keys to their starting values (version 1); keys created
// during the run start absent. Returned errors describe every
// violated invariant (empty slice = clean).
//
// Checked invariants:
//
//  1. No lost updates: committed physical writes to a key have
//     pairwise distinct read versions (two commits with the same
//     vread would mean one overwrote the other blindly).
//  2. Version accounting: the final version of a key equals its
//     initial version plus the number of committed non-read-check
//     updates to it.
//  3. Conservation: for keys touched only by commutative updates,
//     final = initial + Σ committed deltas.
//  4. Constraint safety: the final value satisfies every declared
//     constraint.
//
// Unknown-outcome ops (see Op.Unknown) relax the exact checks to
// bounds: the final version must fall in [committed, committed +
// unknown writes] and a commutative attribute in [Σ committed +
// Σ unknown decrements, Σ committed + Σ unknown increments] — any
// state outside those envelopes is still corruption no crash can
// explain.
func (h *History) Validate(initial map[record.Key]record.Value, final FinalState, cons []record.Constraint) []error {
	ops := h.Ops()
	var errs []error

	type keyStats struct {
		physVreads    map[record.Version]int
		committed     int // committed writes (physical+commutative)
		deltas        map[string]int64
		sawPhysical   bool
		sawComm       bool
		lastTombstone bool

		// Unknown-outcome bounds.
		unknownWrites int // unknown non-read-check updates touching the key
		unknownPhys   bool
		unknownNeg    map[string]int64 // <= 0, worst-case unapplied/applied split
		unknownPos    map[string]int64 // >= 0
	}
	stats := make(map[record.Key]*keyStats)
	ks := func(k record.Key) *keyStats {
		s, ok := stats[k]
		if !ok {
			s = &keyStats{
				physVreads: make(map[record.Version]int),
				deltas:     make(map[string]int64),
				unknownNeg: make(map[string]int64),
				unknownPos: make(map[string]int64),
			}
			stats[k] = s
		}
		return s
	}
	for _, op := range ops {
		if op.Unknown {
			for _, up := range op.Updates {
				s := ks(up.Key)
				switch up.Kind {
				case record.KindPhysical:
					s.unknownWrites++
					s.unknownPhys = true
				case record.KindCommutative:
					s.unknownWrites++
					for attr, d := range up.Deltas {
						if d < 0 {
							s.unknownNeg[attr] += d
						} else {
							s.unknownPos[attr] += d
						}
					}
				}
			}
			continue
		}
		if !op.Committed {
			continue
		}
		for _, up := range op.Updates {
			s := ks(up.Key)
			switch up.Kind {
			case record.KindPhysical:
				s.physVreads[up.ReadVersion]++
				s.committed++
				s.sawPhysical = true
				s.lastTombstone = up.NewValue.Tombstone()
			case record.KindCommutative:
				s.committed++
				s.sawComm = true
				for attr, d := range up.Deltas {
					s.deltas[attr] += d
				}
			case record.KindReadCheck:
				// validation only — no state change
			}
		}
	}

	for key, s := range stats {
		// 1. No lost updates.
		for vread, n := range s.physVreads {
			if n > 1 {
				errs = append(errs, fmt.Errorf(
					"check: %s: %d committed physical writes share read version %d (lost update)", key, n, vread))
			}
		}
		val, ver, exists := final(key)
		init, preloaded := initial[key]
		initVer := record.Version(0)
		if preloaded {
			initVer = 1
		}
		// 2. Version accounting: exact, or bounded when unknown-outcome
		// ops touched the key (each unknown write may or may not have
		// committed).
		lo := initVer + record.Version(s.committed)
		hi := lo + record.Version(s.unknownWrites)
		if ver < lo || ver > hi {
			if lo == hi {
				errs = append(errs, fmt.Errorf(
					"check: %s: final version %d, want %d (initial %d + %d committed writes)",
					key, ver, lo, initVer, s.committed))
			} else {
				errs = append(errs, fmt.Errorf(
					"check: %s: final version %d outside [%d, %d] (initial %d + %d committed + up to %d unknown writes)",
					key, ver, lo, hi, initVer, s.committed, s.unknownWrites))
			}
		}
		// 3. Conservation for purely commutative keys (unknown physical
		// ops void the interval — the key class is no longer delta-only).
		if s.sawComm && !s.sawPhysical && !s.unknownPhys {
			if !exists && preloaded {
				errs = append(errs, fmt.Errorf("check: %s: commutative-only key vanished", key))
			} else {
				for attr, delta := range s.deltas {
					base := init.Attr(attr) + delta
					got := val.Attr(attr)
					aLo := base + s.unknownNeg[attr]
					aHi := base + s.unknownPos[attr]
					if got < aLo || got > aHi {
						if aLo == aHi {
							errs = append(errs, fmt.Errorf(
								"check: %s.%s: final %d, want %d (initial %d + Σdeltas %d)",
								key, attr, got, base, init.Attr(attr), delta))
						} else {
							errs = append(errs, fmt.Errorf(
								"check: %s.%s: final %d outside [%d, %d] (initial %d + Σcommitted %d ± unknown deltas)",
								key, attr, got, aLo, aHi, init.Attr(attr), delta))
						}
					}
				}
			}
		}
		// 4. Constraints.
		if exists {
			for _, con := range cons {
				if x, ok := val.Attrs[con.Attr]; ok && !con.Satisfied(x) {
					errs = append(errs, fmt.Errorf(
						"check: %s: constraint %s violated (value %d)", key, con, x))
				}
			}
		}
		// Tombstone bookkeeping consistency (moot when an unknown
		// physical op may have rewritten the key after the delete).
		if s.sawPhysical && s.lastTombstone && exists && !s.sawComm && !s.unknownPhys {
			errs = append(errs, fmt.Errorf("check: %s: last committed write was a delete but the record exists", key))
		}
	}
	return errs
}

// ReplicaState is one replica's post-quiesce view of a key, used by
// the exact-convergence invariant. Lineage is the replica's canonical
// lineage fingerprint for the key (core.LineageSummary.String —
// passed as an opaque string so this package stays protocol-agnostic).
type ReplicaState struct {
	Replica string
	Lineage string
	Value   record.Value
	Version record.Version
	Exists  bool
}

// ValidateConvergence checks the exact-convergence invariant for one
// key: after the network heals and the run quiesces, every replica
// must hold an identical lineage summary AND identical committed
// state. This is strictly stronger than final-value equality — two
// forked branches can coincidentally sum to equal values, and a
// replica that silently lost a forked apply while another gained an
// offsetting one passes value checks but cannot pass summary
// equality. Returned errors name the diverging replicas.
func ValidateConvergence(key record.Key, states []ReplicaState) []error {
	if len(states) < 2 {
		return nil
	}
	var errs []error
	ref := states[0]
	for _, s := range states[1:] {
		if s.Lineage != ref.Lineage {
			errs = append(errs, fmt.Errorf(
				"check: %s: lineage divergence after quiesce: %s=%s vs %s=%s",
				key, ref.Replica, ref.Lineage, s.Replica, s.Lineage))
			continue
		}
		if s.Version != ref.Version || s.Exists != ref.Exists || !s.Value.Equal(ref.Value) {
			errs = append(errs, fmt.Errorf(
				"check: %s: equal lineages but diverged state after quiesce: %s=%s v%d(exists=%v) vs %s=%s v%d(exists=%v)",
				key, ref.Replica, ref.Value, ref.Version, ref.Exists,
				s.Replica, s.Value, s.Version, s.Exists))
		}
	}
	return errs
}

// Summary returns commit/abort counts for reporting.
func (h *History) Summary() (commits, aborts int) {
	for _, op := range h.Ops() {
		switch {
		case op.Unknown:
			// neither: outcome unacknowledged (see Unknowns)
		case op.Committed:
			commits++
		default:
			aborts++
		}
	}
	return commits, aborts
}

// KeysMentioned returns the subset of known keys that appear verbatim
// in a violation message, longest match first. Violation strings embed
// the keys they are about ("check: key stock/03 ..."), so this is how
// the flight recorder turns a failed invariant into candidate
// transaction timelines without the checker having to grow a
// structured error type.
func KeysMentioned(msg string, known []record.Key) []record.Key {
	var out []record.Key
	for _, k := range known {
		if k != "" && strings.Contains(msg, string(k)) {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i] < out[j]
	})
	return out
}
