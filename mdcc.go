// Package mdcc is a from-scratch implementation of MDCC — Multi-Data
// Center Consistency (Kraska, Pang, Franklin, Madden, Fekete;
// EuroSys 2013) — an optimistic commit protocol for geo-replicated
// transactions that commits in one wide-area round trip in the common
// case, without a master and without static partitioning, at a cost
// comparable to eventually consistent protocols.
//
// The public API offers two deployment styles:
//
//   - StartCluster: an in-process five-data-center cluster over the
//     real-time transport with (optionally scaled) WAN latencies —
//     for experimentation, examples, and tests.
//   - Dial / cmd/mdcc-server: real TCP servers and clients.
//
// In both styles a session either owns a private coordinator (the
// paper's per-app-server library: Cluster.Session, Dial) or attaches
// to its data center's shared transaction gateway
// (Cluster.Gateway(dc).Session(), DialGateway, mdcc-server -gateway),
// which runs one coordinator, batches protocol messages across
// transactions, coalesces hot-key commutative updates into merged
// options, and applies admission control — the serving tier for
// high-fan-in deployments.
//
// Transactions follow the paper's model: read whatever you need
// (read committed), collect a write-set of physical updates
// (validated against the versions you read — no lost updates) and/or
// commutative delta updates (subject to declared value constraints,
// enforced by quorum demarcation), then Commit. The commit either
// applies all updates or none (atomic durability).
//
//	sess := cluster.Session(mdcc.USWest)
//	val, ver, _, _ := sess.Read("item/42")
//	ok, _ := sess.Commit(
//	    mdcc.Physical("item/42", ver, val.WithAttr("price", 1999)),
//	    mdcc.Commutative("item/42/stock", map[string]int64{"stock": -1}),
//	)
//
// The benchmark harness that regenerates every figure of the paper's
// evaluation lives in internal/bench and cmd/mdcc-bench.
package mdcc

import (
	"mdcc/internal/core"
	"mdcc/internal/record"
	"mdcc/internal/topology"
)

// Re-exported data-model types: see internal/record.
type (
	// Key identifies a record.
	Key = record.Key
	// Value is a record's contents: numeric attributes plus a blob.
	Value = record.Value
	// Version is a record's per-update version counter.
	Version = record.Version
	// Update is one element of a transaction's write-set.
	Update = record.Update
	// Constraint bounds a numeric attribute (e.g. stock >= 0).
	Constraint = record.Constraint
	// DC identifies one of the five data centers.
	DC = topology.DC
	// Mode selects the protocol variant (full MDCC, Fast, Multi).
	Mode = core.Mode
)

// The five data centers of the default topology (the paper's EC2
// regions).
const (
	USWest      = topology.USWest
	USEast      = topology.USEast
	EUIreland   = topology.EUIreland
	APSingapore = topology.APSingapore
	APTokyo     = topology.APTokyo
)

// Protocol variants.
const (
	// ModeMDCC enables fast ballots and commutative updates (the
	// full protocol; default).
	ModeMDCC = core.ModeMDCC
	// ModeFast disables commutative support.
	ModeFast = core.ModeFast
	// ModeMulti routes everything through stable per-record masters.
	ModeMulti = core.ModeMulti
)

// Physical builds a whole-value update validated against the version
// the transaction read (vread → vwrite).
func Physical(key Key, readVersion Version, newValue Value) Update {
	return record.Physical(key, readVersion, newValue)
}

// Insert builds a physical update that requires the record to be new.
func Insert(key Key, value Value) Update { return record.Insert(key, value) }

// Delete builds a tombstoning update.
func Delete(key Key, readVersion Version) Update { return record.Delete(key, readVersion) }

// Commutative builds an attribute-delta update (e.g. decrement
// stock), which commutes with other commutative updates and is
// validated against declared constraints via quorum demarcation.
func Commutative(key Key, deltas map[string]int64) Update {
	return record.Commutative(key, deltas)
}

// ReadCheck builds a read-set validation: the transaction commits
// only if key is still at readVersion. Adding read checks for every
// record a transaction read (see Session.TransactSerializable)
// upgrades isolation towards serializability — the §4.4 extension.
func ReadCheck(key Key, readVersion Version) Update {
	return record.ReadCheck(key, readVersion)
}

// MinBound declares "attr >= min".
func MinBound(attr string, min int64) Constraint { return record.MinBound(attr, min) }

// MaxBound declares "attr <= max".
func MaxBound(attr string, max int64) Constraint { return record.MaxBound(attr, max) }

// Bound declares "min <= attr <= max".
func Bound(attr string, min, max int64) Constraint { return record.Bound(attr, min, max) }

// AllDCs lists the five data centers.
func AllDCs() []DC { return topology.AllDCs() }
