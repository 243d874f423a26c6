package core

import (
	"time"

	"mdcc/internal/record"
	"mdcc/internal/trace"
	"mdcc/internal/transport"
)

// Committed-visibility feed: the wire machinery behind the gateway
// tier's learned-replica read path. A DC-local subscriber (the
// gateway) asks a storage node to stream every change to its
// committed state; the node batches the keys dirtied while
// dispatching one inbound envelope into a single MsgVisibilityFeed
// per subscriber, staged behind the dispatch's own messages (see
// StorageNode.leave), so at steady state the feed rides the
// dispatch cadence the node already pays for. Each item carries the
// committed value, its version, and the record's escrow snapshot, so
// gateway headroom accounts refresh on the same stream.
//
// The feed is a cache-fill channel, never a correctness channel:
// every item is committed state (read committed by construction), and
// consumers detect loss through the per-subscription (Epoch, Seq)
// numbering — a gap or a silence longer than the keepalive interval
// means "resubscribe and catch up", not "serve wrong data".

// MsgVisibilitySub subscribes the sender to this storage node's
// committed-visibility feed. Epoch identifies the subscription
// incarnation (a resubscribing or restarted gateway bumps it so
// in-flight messages of the old stream cannot be mistaken for the new
// one). CatchUp lists keys the subscriber already materializes; the
// node answers with their current committed state in the hello
// message (the snapshot catch-up that closes a detected gap).
type MsgVisibilitySub struct {
	Epoch   uint64
	CatchUp []record.Key
}

// FeedItem is one key's committed state on the feed.
type FeedItem struct {
	Key     record.Key
	Value   record.Encoded
	Version record.Version
	Exists  bool
	// Escrow is the node's demarcation snapshot for the key (valid
	// only under configured constraints), so escrow freshness rides
	// the same stream as value freshness.
	Escrow EscrowSnap
}

// MsgVisibilityFeed is one batch of committed-state changes. Seq is
// contiguous per (subscriber, Epoch) starting at 1 (the subscription
// hello, which carries the catch-up items); any hole means messages
// were lost and the subscriber must resubscribe. Empty Items are
// keepalives: they prove stream liveness through quiet periods, which
// is what bounds the staleness of a served read. Boot identifies the
// publisher incarnation: a restarted storage node loses its volatile
// subscriber table, and a same-epoch (re)registration to the fresh
// incarnation restarts the sequence at 1 — without Boot, the new
// stream's low sequence numbers alias the old stream's
// already-consumed ones and everything in between is discarded as
// duplicates instead of triggering a resync.
type MsgVisibilityFeed struct {
	Epoch uint64
	Seq   uint64
	Boot  uint64
	Items []FeedItem
}

// FeedCatchUpMax caps the catch-up items answered in one hello so a
// pathological subscriber cannot request an unbounded snapshot.
// Exported because subscribers size their catch-up lists to it — a
// subscriber listing more would silently believe truncated keys are
// registered.
const FeedCatchUpMax = 4096

// feedInterestMax bounds the per-subscriber interest set. Keys
// arriving beyond it are rejected: neither registered NOR echoed —
// the echo is the subscriber's proof of coverage (it serves from
// memory only keys the stream has confirmed), so echoing an
// unregistered key would license serving a copy the stream will
// never refresh. Rejected keys simply stay on the RPC path.
// (A var, not a const, so tests can exercise the cap.)
var feedInterestMax = 1 << 16

// feedSub is one subscriber's stream state on the storage node.
// interest is the subscriber's materialized working set: the feed
// streams ONLY these keys, so its cost scales with what is read, not
// with what is written (a write-only workload costs keepalives and
// nothing else). Registration is the subscription's CatchUp list;
// same-epoch subscriptions add to it incrementally (the gateway sends
// one per cold-miss fill) and a new epoch replaces it wholesale.
type feedSub struct {
	epoch     uint64
	seq       uint64
	lastSent  time.Time
	lastHeard time.Time // last (re)subscription/renewal from the subscriber
	interest  map[record.Key]bool
}

// feedSubTTL expires subscriptions whose subscriber has gone silent:
// live gateways renew periodically (a same-epoch empty subscription,
// see the gateway's feed check); one that crashed for good stops, and
// without expiry the node would keepalive a dead address forever.
const feedSubTTL = 2 * time.Minute

// feedKeepAlive is how often a storage node proves its feed alive to
// quiet subscribers: the node-side half of the gateway read tier's
// staleness bound.
const feedKeepAlive = 500 * time.Millisecond

// feedFlushEvery rate-limits feed flushes: at most one feed message
// per subscriber per interval under sustained write load (the first
// flush after quiet goes immediately), so the feed cannot tax a
// saturated write path. It is the feed's steady-state staleness bound
// under load.
const feedFlushEvery = 10 * time.Millisecond

// onVisibilitySub (re)registers a subscriber and answers with the
// hello: Seq 1 of the new epoch, carrying the requested catch-up
// state. Keyed by sender, so a resubscription replaces the old
// stream. A DUPLICATE subscription (same epoch — a retransmitting
// network) must NOT reset the sequence counter: resetting would
// renumber in-flight messages the subscriber already consumed, and a
// later real item could land on an already-consumed sequence number
// and be dropped as stale — silent, undetected staleness. Instead the
// duplicate is answered in-stream: a normal next-seq message carrying
// the requested catch-up, contiguous with everything before it.
func (n *StorageNode) onVisibilitySub(from transport.NodeID, m MsgVisibilitySub) {
	sub, ok := n.feedSubs[from]
	if !ok {
		sub = &feedSub{}
		n.feedSubs[from] = sub
		n.feedSubOrder = append(n.feedSubOrder, from)
	}
	if ok && m.Epoch < sub.epoch {
		// A delayed or duplicated subscription from a superseded epoch
		// (subscriber epochs only ever increase): accepting it would
		// regress the stream — wipe the live interest set, restart the
		// numbering, and ship everything under an epoch the subscriber
		// now discards, silencing the feed until its TTL resync.
		return
	}
	if !ok || sub.epoch != m.Epoch {
		sub.epoch = m.Epoch
		sub.seq = 0
		sub.interest = make(map[record.Key]bool, len(m.CatchUp))
	}
	sub.lastHeard = n.net.Now()
	var items []FeedItem // nil, not empty, when nothing is caught up: what the wire decodes
	for i, key := range m.CatchUp {
		if i >= FeedCatchUpMax {
			break
		}
		if !sub.interest[key] {
			if len(sub.interest) >= feedInterestMax {
				continue // rejected: not registered, so never echoed
			}
			sub.interest[key] = true
		}
		items = append(items, n.feedItem(key, from))
	}
	n.sendFeed(from, sub, items)
	if !n.feedKeepAliveArmed {
		n.feedKeepAliveArmed = true
		n.scheduleFeedKeepAlive()
	}
}

// feedItem snapshots one key's committed state for the feed,
// addressed to one subscriber (the escrow snapshot's contender count
// includes the recipient's group; see contenderGroups).
func (n *StorageNode) feedItem(key record.Key, to transport.NodeID) FeedItem {
	val, ver, ok := n.store.GetEncoded(key)
	return FeedItem{
		Key:     key,
		Value:   val,
		Version: ver,
		Exists:  ok && !val.Tombstone(),
		Escrow:  n.escrowSnap(key, val, ver, to),
	}
}

// markFeedDirty queues a key whose committed state (or escrow
// pendings) changed for the end-of-dispatch feed flush (see leave) —
// only if some subscriber registered interest in it.
func (n *StorageNode) markFeedDirty(key record.Key) {
	if len(n.feedSubs) == 0 || n.feedDirtySet[key] {
		return
	}
	wanted := false
	for _, sub := range n.feedSubs {
		if sub.interest[key] {
			wanted = true
			break
		}
	}
	if !wanted {
		return
	}
	n.feedDirtySet[key] = true
	n.feedDirty = append(n.feedDirty, key)
}

// flushFeeds ships the dirtied keys, rate-limited to one feed message
// per subscriber per feedFlushEvery: the first flush after a quiet
// period goes out immediately (steady-state staleness of one
// dispatch), but under write saturation — when every dispatch
// executes visibilities — consecutive flushes coalesce into one
// message per interval. Without the limit, a saturated shard emits
// one feed message per dispatch and the subscriber's service time
// (which its coalesce-window and sweep timers share) melts under the
// stream, taxing the very write path the feed is observing.
func (n *StorageNode) flushFeeds() {
	if len(n.feedDirty) == 0 || len(n.feedSubs) == 0 {
		return
	}
	now := n.net.Now()
	if since := now.Sub(n.feedLastFlush); since < feedFlushEvery {
		if !n.feedFlushArmed {
			n.feedFlushArmed = true
			n.after(feedFlushEvery-since, func() {
				n.feedFlushArmed = false
				n.flushFeedsNow()
			})
		}
		return
	}
	n.flushFeedsNow()
}

// flushFeedsNow ships everything dirty as one feed message per
// interested subscriber (insertion order, so runs are deterministic).
func (n *StorageNode) flushFeedsNow() {
	if len(n.feedDirty) == 0 || len(n.feedSubs) == 0 {
		return
	}
	n.feedLastFlush = n.net.Now()
	dirty := append([]record.Key(nil), n.feedDirty...)
	for _, key := range dirty {
		delete(n.feedDirtySet, key)
	}
	n.feedDirty = n.feedDirty[:0]
	for _, to := range n.feedSubOrder {
		sub := n.feedSubs[to]
		// Filter by the subscriber's CURRENT interest — always, even
		// with a single subscriber. A key can be queued under one
		// interest set and flushed (rate-limit deferred) after an epoch
		// switch replaced it; shipping it then would echo-confirm a key
		// the new stream does not cover, and the subscriber would serve
		// its frozen copy forever. Items are built per subscriber so
		// the escrow snapshot's contender count can include the
		// recipient (subscriber fan-out is one gateway per DC, so the
		// duplicate snapshot work is bounded and tiny).
		send := make([]FeedItem, 0, len(dirty))
		for _, key := range dirty {
			if sub.interest[key] {
				send = append(send, n.feedItem(key, to))
			}
		}
		if len(send) == 0 {
			continue
		}
		n.sendFeed(to, sub, send)
	}
}

func (n *StorageNode) sendFeed(to transport.NodeID, sub *feedSub, items []FeedItem) {
	sub.seq++
	sub.lastSent = n.net.Now()
	n.m.FeedMsgs++
	n.m.FeedItems += int64(len(items))
	if n.tr != nil && len(items) > 0 {
		// Tx-less: feed items carry keys, not transactions; timelines
		// adopt them through their key sets.
		at := n.net.Now().UnixNano()
		for _, it := range items {
			n.tr.Add(trace.Event{At: at, Key: string(it.Key), Stage: trace.StageFeedPub})
		}
	}
	n.send(to, MsgVisibilityFeed{Epoch: sub.epoch, Seq: sub.seq, Boot: n.feedBoot, Items: items})
}

// scheduleFeedKeepAlive arms the periodic keepalive: any subscriber
// that heard nothing for a full interval gets an empty feed message,
// proving the stream alive through quiet periods. The interval is the
// node-side half of the read tier's staleness bound (the gateway
// declares a feed dead after its feed TTL of silence).
func (n *StorageNode) scheduleFeedKeepAlive() {
	n.after(feedKeepAlive, func() {
		if len(n.feedSubs) == 0 {
			// Every subscriber expired: stop ticking; the next
			// subscription re-arms.
			n.feedKeepAliveArmed = false
			return
		}
		now := n.net.Now()
		// Expire subscribers that stopped renewing (crashed for good,
		// decommissioned) before keepaliving the rest.
		live := n.feedSubOrder[:0]
		for _, to := range n.feedSubOrder {
			sub := n.feedSubs[to]
			if now.Sub(sub.lastHeard) > feedSubTTL {
				delete(n.feedSubs, to)
				continue
			}
			live = append(live, to)
		}
		n.feedSubOrder = live
		for _, to := range n.feedSubOrder {
			sub := n.feedSubs[to]
			if now.Sub(sub.lastSent) >= feedKeepAlive {
				n.sendFeed(to, sub, nil)
			}
		}
		n.scheduleFeedKeepAlive()
	})
}
