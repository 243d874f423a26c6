package gateway

import (
	"sort"
	"time"

	"mdcc/internal/core"
	"mdcc/internal/record"
	"mdcc/internal/trace"
	"mdcc/internal/transport"
)

// Learned-replica read tier: the gateway materializes the committed
// state its DC's storage shards stream to it (core.MsgVisibilityFeed)
// and serves reads straight from memory — zero RPCs at steady state,
// which is exactly what MDCC's read-committed guarantee (§4.1)
// licenses: any committed version is a legal answer, so a local copy
// kept fresh by the commit stream (Megastore's trick) can stand in
// for the replica.
//
// The tier is a cache with explicit staleness bounds, never a
// correctness mechanism:
//
//   - Every served value is a committed (value, version) pair that
//     some storage replica held — read committed by construction.
//   - Staleness is bounded by feed liveness: each shard's stream
//     carries contiguous sequence numbers per subscription epoch and
//     keepalives through quiet periods; a gap or feedTTL of silence
//     marks the feed dead and reads fall back to RPC until a
//     resubscription (with snapshot catch-up for the materialized
//     keys) restores the stream.
//   - A memory copy below the caller's session floor (monotonic
//     reads, read-your-writes) is never served; the read falls back
//     to a single-flight RPC of the local replica (concurrent same-key
//     misses share one MsgRead). What a caller does with an answer
//     that still lags its floor is mtx.ReadAtFloor's rule, which
//     re-reads through ReadQuorum.
//
// Memory is bounded by demand, not by the write stream: feed items
// refresh only keys the gateway already tracks (previously read
// through it, or holding escrow accounts); unknown keys are ignored
// and materialize on first read via the RPC fallback, whose reply is
// installed for the next reader. The idle sweep retires keys that
// stop being read.

// feedTTL is how long a feed may go silent before the gateway stops
// serving reads from its shard's materialized state and renews the
// subscription. Paired with the storage-side keepalive (500ms, see
// internal/core/feed.go), it is the read tier's staleness bound: a
// served value lags its local replica by at most the flush latency of
// one dispatch at steady state, and by at most feedTTL across
// failures.
const feedTTL = 2 * time.Second

// feedState tracks one local shard's visibility stream.
type feedState struct {
	epoch   uint64 // current subscription epoch
	expect  uint64 // next sequence number the stream owes us
	boot    uint64 // publisher incarnation (0 = none consumed yet)
	added   int    // interest registrations sent this epoch (GC trigger)
	lastMsg time.Time
	lastSub time.Time
	live    bool
}

// feedRenewEvery is how often a healthy subscription is renewed (a
// same-epoch empty subscription, answered in-stream): the node-side
// proof this subscriber is still alive. Must be well under the node's
// subscription TTL (core: 2 minutes) so live streams never expire.
const feedRenewEvery = 30 * time.Second

// interestSlack is how much the shard-side interest set may exceed
// the gateway's live materialized set before the subscription is
// rotated to a fresh epoch (whose interest is exactly the current
// materialized set). Without rotation the interest set only ever
// grows within an epoch — evicted keys keep streaming and, at the
// shard's capacity cap, new keys would be pinned to the RPC path
// forever in a perfectly healthy steady state.
const interestSlack = 1024

// readFlight is one in-flight fallback read shared by every
// concurrent reader of the key.
type readFlight struct {
	waiters []encodedRead
}

// subscribeFeedsLocked (re)subscribes to every local shard.
func (g *Gateway) subscribeFeedsLocked() {
	for _, shard := range g.shards {
		g.resubscribeLocked(shard, g.feeds[shard])
	}
}

// resubscribeLocked starts a fresh subscription epoch on one shard,
// asking for snapshot catch-up of the keys currently materialized
// from it. The old epoch's in-flight messages are dead on arrival.
func (g *Gateway) resubscribeLocked(shard transport.NodeID, fs *feedState) {
	g.subEpoch++
	fs.epoch = g.subEpoch
	fs.expect = 1
	fs.boot = 0
	fs.live = false
	fs.lastSub = g.net.Now()
	g.m.FeedResubs++
	// The catch-up list doubles as the fresh epoch's interest set: the
	// shard will stream exactly these keys. Every materialized key is
	// unconfirmed until the new stream echoes it back (keys beyond the
	// cap stay unconfirmed — and therefore unserved — until a read
	// re-registers them). Sorted before capping: map iteration order
	// must not decide WHICH keys make the cut, or a seeded replay
	// diverges on which keys end up memory-served (the determinism
	// guarantee every other send path here preserves).
	var catchUp []record.Key
	for key, ks := range g.keys {
		if g.cl.ReplicaIn(key, g.dc) != shard {
			continue
		}
		ks.confirmed = false
		ks.askTries = 0
		if ks.hasVal {
			catchUp = append(catchUp, key)
		}
	}
	sort.Slice(catchUp, func(i, j int) bool { return catchUp[i] < catchUp[j] })
	if len(catchUp) > core.FeedCatchUpMax {
		catchUp = catchUp[:core.FeedCatchUpMax]
	}
	fs.added = len(catchUp)
	g.net.Send(g.id, shard, core.MsgVisibilitySub{Epoch: fs.epoch, CatchUp: catchUp})
}

// askInterestLocked registers a newly materialized key in its shard's
// interest set: a same-epoch subscription carrying just this key,
// which the shard answers in-stream (the echo sets ks.confirmed and
// unlocks memory serving). Lost adds self-heal — the key keeps
// falling back to RPC and each fill re-asks — but with exponential
// backoff: an add the shard REJECTED (interest set at capacity) is
// never echoed either, and without backoff every read of such a key
// would keep a doomed subscription message in flight forever.
func (g *Gateway) askInterestLocked(key record.Key, ks *keyState) {
	if g.tun.DisableReadTier || ks.confirmed {
		return
	}
	now := g.net.Now().UnixNano()
	backoff := feedTTL / 4 << min(ks.askTries, 6)
	if ks.askedAt != 0 && now-ks.askedAt < int64(backoff) {
		return
	}
	ks.askedAt = now
	ks.askTries++
	shard := g.cl.ReplicaIn(key, g.dc)
	fs, ok := g.feeds[shard]
	if !ok {
		return
	}
	fs.added++
	g.net.Send(g.id, shard, core.MsgVisibilitySub{Epoch: fs.epoch, CatchUp: []record.Key{key}})
}

// scheduleFeedCheck arms the periodic liveness probe: feeds silent
// past feedTTL are marked dead (reads fall back to RPC) and
// resubscribed — this is also how the tier recovers from storage-node
// crashes and healed partitions, whose fresh incarnations hold no
// subscriber state.
func (g *Gateway) scheduleFeedCheck() {
	g.net.After(g.id, feedTTL/2, func() {
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			return
		}
		now := g.net.Now()
		for _, shard := range g.shards {
			fs := g.feeds[shard]
			if now.Sub(fs.lastMsg) > feedTTL {
				if fs.live {
					fs.live = false
					g.m.FeedDrops++
				}
				if now.Sub(fs.lastSub) >= feedTTL/2 {
					g.resubscribeLocked(shard, fs)
				}
				continue
			}
			// Healthy stream: renew the subscription periodically so the
			// node's subscriber-expiry (its defense against gateways that
			// died for good) never reaps a live one.
			if now.Sub(fs.lastSub) >= feedRenewEvery {
				fs.lastSub = now
				g.net.Send(g.id, shard, core.MsgVisibilitySub{Epoch: fs.epoch})
			}
			// Interest garbage collection: evictions never shrink the
			// shard-side interest set within an epoch, so once the
			// registrations sent this epoch far exceed what is still
			// materialized, rotate to a fresh epoch whose interest is
			// exactly the live set (also unpinning any keys a full
			// interest table rejected).
			if fs.added > interestSlack {
				materialized := 0
				for key, ks := range g.keys {
					if ks.hasVal && g.cl.ReplicaIn(key, g.dc) == shard {
						materialized++
					}
				}
				if fs.added > 2*materialized+interestSlack {
					g.resubscribeLocked(shard, fs)
				}
			}
		}
		g.mu.Unlock()
		g.scheduleFeedCheck()
	})
}

// onFeed folds one visibility-feed message into the materialized
// store. Sequence holes mean the stream lost messages (drop, crash,
// partition): the feed is declared dead and resubscribed with
// catch-up; until the new epoch's hello arrives, reads on this
// shard's keys fall back to RPC.
func (g *Gateway) onFeed(from transport.NodeID, m core.MsgVisibilityFeed) {
	g.mu.Lock()
	fs, ok := g.feeds[from]
	if !ok || g.closed {
		g.mu.Unlock()
		return
	}
	switch {
	case m.Epoch != fs.epoch:
		g.m.FeedStaleMsgs++ // an older (or dead incarnation's) stream
		g.mu.Unlock()
		return
	case fs.boot != 0 && m.Boot != fs.boot:
		// The publisher restarted under our feet: its volatile
		// subscriber table is gone and a same-epoch (re)registration
		// restarted the sequence at 1, whose low numbers would alias
		// our already-consumed ones and be discarded as duplicates —
		// losing the fresh incarnation's messages without ever
		// detecting a gap. A boot change is a gap. Resync.
		g.m.FeedGaps++
		g.resubscribeLocked(from, fs)
		g.mu.Unlock()
		return
	case m.Seq < fs.expect:
		g.m.FeedStaleMsgs++ // duplicate of an already-consumed message
		g.mu.Unlock()
		return
	case m.Seq > fs.expect:
		// Hole in the stream: something between expect and Seq is lost
		// (or still in reordered flight — equally unusable, the stream
		// must be contiguous to bound staleness). Resync.
		g.m.FeedGaps++
		g.resubscribeLocked(from, fs)
		g.mu.Unlock()
		return
	}
	fs.expect++
	fs.boot = m.Boot
	fs.lastMsg = g.net.Now()
	fs.live = true
	g.m.FeedMsgs++
	g.m.FeedItems += int64(len(m.Items))
	now := g.net.Now()
	for _, it := range m.Items {
		// Refresh only keys already tracked: the feed fills the cache,
		// it does not decide its working set (see package comment).
		ks, tracked := g.keys[it.Key]
		if !tracked {
			continue
		}
		// The stream echoing the key proves it is in the shard's
		// interest set — memory serving is licensed from here on.
		ks.confirmed = true
		g.installLocked(ks, it.Value, it.Version, it.Exists)
		g.foldEscrowLocked(ks, it.Escrow, now)
	}
	g.mu.Unlock()
}

// installLocked folds a committed (value, version) observation into a
// key's materialized state; versions only move forward. The key keeps
// val's bytes themselves (shared, see keyState.val).
func (g *Gateway) installLocked(ks *keyState, val record.Encoded, ver record.Version, exists bool) {
	if ks.hasVal && ver < ks.valVer {
		return
	}
	ks.hasVal = true
	ks.val = val
	ks.valVer = ver
	ks.valExists = exists
}

// feedLiveLocked reports whether the feed covering key currently
// bounds staleness (subscribed, gapless, heard from within feedTTL).
func (g *Gateway) feedLiveLocked(key record.Key) bool {
	fs, ok := g.feeds[g.cl.ReplicaIn(key, g.dc)]
	return ok && fs.live && g.net.Now().Sub(fs.lastMsg) <= feedTTL
}

// ReadFloor serves a read that must not observe a version below
// floor (0 = any committed version). The ladder:
//
//  1. materialized local state — zero RPCs — when the key's feed is
//     live and the copy meets the floor;
//  2. a single-flight RPC read of the nearest replica (concurrent
//     same-key misses share one MsgRead), whose reply is installed
//     for the next reader and answers every waiter.
//
// With the read tier disabled the ladder is rung 2 alone, one RPC per
// read. The callback may fire synchronously (memory hit, closed
// gateway) or on the coordinator's goroutine (fallbacks); past
// the memory rung it is held in the pending map, so Kill and Close
// answer it. The answer can lag the floor when the local replica has
// not caught up: the floor only keeps memory below it from being
// served, and what a caller holding session guarantees does with a
// miss is mtx.ReadAtFloor's rule (a quorum re-read through
// ReadQuorum), not the gateway's.
func (g *Gateway) ReadFloor(key record.Key, floor record.Version, cb ReadFunc) {
	g.readFloor(key, floor, decoding(cb))
}

func (g *Gateway) readFloor(key record.Key, floor record.Version, cb encodedRead) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		cb(nil, 0, false)
		return
	}
	if ks, ok := g.keys[key]; ok && ks.hasVal && ks.confirmed && ks.valVer >= floor && g.feedLiveLocked(key) {
		val, ver, exists := ks.val, ks.valVer, ks.valExists
		ks.readAt = g.net.Now().UnixNano()
		g.m.LocalReads++
		if g.tr != nil {
			// Floored reads trace too: a memory hit is one event, so a
			// stale-read diagnosis can see which tier answered.
			g.tr.Add(trace.Event{At: ks.readAt, Key: string(key),
				Stage: trace.StageRead, Arg: int64(ver)})
		}
		g.mu.Unlock()
		cb(val, ver, exists)
		return
	}
	held := g.holdReadLocked(cb)
	if g.tun.DisableReadTier {
		g.mu.Unlock()
		g.net.After(g.co.ID(), 0, func() { g.co.ReadEncoded(key, held) })
		return
	}
	if fl, ok := g.flights[key]; ok {
		fl.waiters = append(fl.waiters, held)
		g.m.ReadCoalesced++
		g.mu.Unlock()
		return
	}
	fl := &readFlight{waiters: []encodedRead{held}}
	g.flights[key] = fl
	g.m.ReadRPCs++
	g.mu.Unlock()
	g.net.After(g.co.ID(), 0, func() {
		g.co.ReadEncoded(key, func(val record.Encoded, ver record.Version, exists bool) {
			g.settleFlight(key, fl, val, ver, exists)
		})
	})
}

// settleFlight installs a fallback read's result and answers every
// waiter with it.
func (g *Gateway) settleFlight(key record.Key, fl *readFlight, val record.Encoded, ver record.Version, exists bool) {
	g.mu.Lock()
	if cur, ok := g.flights[key]; ok && cur == fl {
		delete(g.flights, key)
	}
	ks := g.ks(key)
	g.installLocked(ks, val, ver, exists)
	ks.readAt = g.net.Now().UnixNano()
	g.askInterestLocked(key, ks)
	g.mu.Unlock()
	for _, cb := range fl.waiters {
		cb(val, ver, exists)
	}
}

// readTierGaugesLocked reports the materialized-key count and how
// many shard feeds are currently live.
func (g *Gateway) readTierGaugesLocked() (materialized, feedsLive int64) {
	for _, ks := range g.keys {
		if ks.hasVal {
			materialized++
		}
	}
	now := g.net.Now()
	for _, shard := range g.shards {
		if fs := g.feeds[shard]; fs != nil && fs.live && now.Sub(fs.lastMsg) <= feedTTL {
			feedsLive++
		}
	}
	return materialized, feedsLive
}
