// HTTP operational endpoints.
//
//	GET /healthz  — liveness probe ("ok")
//	GET /metrics  — JSON snapshot of this server's counters
//	GET /trace    — flight-recorder diagnosis bundle (with -trace):
//	                recent retained transaction traces, slowest first,
//	                one Compact timeline per line; ?full=1 switches to
//	                the multi-line per-event rendering
//	GET /debug/pprof/*  — standard Go profiling endpoints (with
//	                -profile): profile, heap, goroutine, block, mutex,
//	                cmdline, symbol, trace. Block and mutex profiling
//	                rates are enabled by the flag.
//
// Once shutdown begins every endpoint answers 503 instead of racing
// the closing stores (a request in flight when SIGTERM landed used to
// read half-closed state and emit partial JSON).
//
// /metrics schema (fields are stable; additions are
// backwards-compatible):
//
//	{
//	  "dc": "us-west",                    // this server's data center
//	  "ringEpoch": 1,                     // published shard-ring epoch this
//	                                      // server routes under (bumps on
//	                                      // every live shard move)
//	  "shards": [{                        // one entry per hosted shard
//	    "node": "us-west/store0",         // storage node ID
//	    "keys": 123,                      // records in the committed store
//	    "puts": 456,                      // store writes since boot
//	    "protocol": { ... }               // core.Metrics: votes, Phase1/2,
//	                                      // executed/discarded options,
//	                                      // demarcation rejects, sweeps,
//	                                      // BatchEnvelopes/BatchItems
//	                                      // (gateway batch fan-in),
//	                                      // VoteBatchEnvelopes/Items
//	                                      // (acceptor→coordinator vote
//	                                      // batching fan-in),
//	                                      // FeedMsgs/FeedItems (visibility
//	                                      // feed published to the DC's
//	                                      // gateway read tier)
//	    "durability": {                   // present only with -data:
//	      "degraded": false,              // durability failure latched —
//	                                      // the node has stopped acking
//	      "snapshotSeq": 3,               // newest on-disk checkpoint
//	      "checkpoints": 2,               // taken by this incarnation
//	      "appendsSinceCheckpoint": 120,  // snapshot age in WAL records:
//	                                      // the tail a crash right now
//	                                      // would replay
//	      "walAppends": 456,              // records in the node's one WAL
//	                                      // (puts and decisions)
//	      "walSyncs": 40,                 // fsync batches issued
//	      "syncBatchMean": 11.4,          // group-commit fan-in
//	      "syncBatchMax": 32,
//	      "walSegments": 3,               // on-disk footprint not yet
//	      "walLiveBytes": 81920,          // reclaimed by checkpoints
//	      "replayMs": 12.5,               // last recovery: wall time,
//	      "replayUsedSnapshot": true,     // seeded from a snapshot,
//	      "replayTail": 66                // records replayed past its cut
//	    }
//	  }],
//	  "transport": {                      // transport.Stats, whole process
//	    "msgsSent": 0, "msgsReceived": 0, // envelopes in/out (TCP+local)
//	    "batchesSent": 0,                 // batch envelopes sent
//	    "batchesReceived": 0,
//	    "batchedSent": 0,                 // messages carried inside them
//	    "batchedReceived": 0,
//	    "bytesSent": 0,                   // wire bytes (binary frames)
//	    "bytesReceived": 0,
//	    "droppedNoRoute": 0,              // sends discarded, never in
//	    "droppedQueueFull": 0,            // msgsSent: no route or wire
//	    "droppedConnDown": 0              // codec; peer queue or local
//	                                      // mailbox full; connection down
//	  },
//	  "gateway": {                        // present only with -gateway:
//	    "commits": 0, "aborts": 0,        // settled client transactions
//	    "submitted": 0,                   // transactions entering the tier
//	    "passthrough": 0,                 // dispatched unmodified
//	    "coalesced": 0,                   // updates that joined a window
//	    "mergedOptions": 0,               // merged proposals issued
//	    "mergedUpdates": 0,               // client updates inside them
//	    "mergeSplits": 0,                 // rejected merges re-run singly
//	    "coalesceRatio": 0.0,             // mergedUpdates / submitted
//	    "escrowUpdates": 0,               // piggybacked escrow snapshots
//	                                      // folded into headroom accounts
//	    "escrowStale": 0,                 // snapshots dropped as stale
//	    "trackedKeys": 0,                 // gauge: keys with a live
//	                                      // headroom account
//	    "minHeadroom": -1,                // gauge: tightest remaining
//	                                      // shared demarcation headroom
//	                                      // (-1 = none tracked; 0 = merge
//	                                      // admission currently bypassing)
//	    "localReads": 0,                  // read tier: reads served from
//	                                      // feed-materialized memory
//	                                      // (zero RPCs)
//	    "readRPCs": 0,                    // single-flight fallback reads
//	                                      // (cold keys, dead feeds,
//	                                      // floor outruns)
//	    "readCoalesced": 0,               // readers who shared an
//	                                      // in-flight fallback
//	    "readQuorums": 0,                 // quorum escalations for
//	                                      // session floors the local
//	                                      // replica lagged
//	    "localReadFrac": 0.0,             // localReads / all reads served
//	    "feedMsgs": 0, "feedItems": 0,    // consumed in-order visibility
//	                                      // feed messages / key states
//	    "feedGaps": 0,                    // sequence holes detected (each
//	                                      // triggers a catch-up resync)
//	    "feedDrops": 0,                   // feeds marked dead after
//	                                      // 2s of feed silence
//	    "feedResubs": 0,                  // subscriptions sent (initial
//	                                      // + resyncs)
//	    "feedStaleMsgs": 0,               // duplicate / dead-epoch feed
//	                                      // messages discarded
//	    "materializedKeys": 0,            // gauge: keys holding a served
//	                                      // value
//	    "feedsLive": 0,                   // gauge: local shard streams
//	                                      // currently bounding staleness
//	    "admissionRejects": 0,            // shed with ErrOverloaded
//	    "inflight": 0, "queueDepth": 0,   // current admission state
//	    "queuePeak": 0,
//	    "batchEnvelopes": 0,              // outbound cross-txn batching
//	    "batchedMsgs": 0, "batchSingles": 0,
//	    "batchFanIn": 0.0,                // batchedMsgs / batchEnvelopes
//	    "wrongShardRetries": 0,           // commits refused with
//	                                      // ErrWrongShard (frozen moving
//	                                      // shard)
//	    "ringEpoch": 0                    // gauge: ring epoch the gateway
//	                                      // last observed
//	  },
//	  "phases": [{                        // present only with -trace:
//	    "phase": "vote[dc2]",             // pipeline phase, split per DC
//	                                      // where meaningful (gateway-
//	                                      // queue, quorum, vote,
//	                                      // visibility, end-to-end)
//	    "n": 0,                           // samples
//	    "p50Ms": 0.0, "p99Ms": 0.0,       // log-bucketed quantiles
//	    "maxMs": 0.0, "meanMs": 0.0
//	  }],
//	  "traceEvents": 0,                   // flight-recorder events since
//	                                      // boot (with -trace)
//	  "traceRetained": 0                  // assembled timelines held for
//	                                      // /trace (with -trace)
//	}
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"mdcc/internal/core"
	"mdcc/internal/gateway"
	"mdcc/internal/server"
	"mdcc/internal/topology"
	"mdcc/internal/trace"
	"mdcc/internal/transport"
)

// opsState gates the operational endpoints across shutdown. Handlers
// hold the read lock for their whole body, so Close() — taken before
// main tears down the stores, transport and gateway — both flips the
// flag and waits out any request already reading them.
type opsState struct {
	mu     sync.RWMutex
	closed bool
}

// Close marks the server as shutting down and waits for in-flight
// handlers to drain. Safe to call on a nil receiver (no -http).
func (s *opsState) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// guard wraps a handler with the shutdown gate: after Close(), the
// endpoint answers 503 instead of racing the closing stores.
func (s *opsState) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.RLock()
		defer s.mu.RUnlock()
		if s.closed {
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
			return
		}
		h(w, r)
	}
}

// serveHTTP starts the operational endpoints documented above on their
// own goroutine and returns the shutdown gate.
func serveHTTP(addr string, dc topology.DC, cl *topology.Cluster, d *server.DC, net *transport.TCP,
	rec *trace.Recorder, profile bool) *opsState {
	state := &opsState{}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/metrics", state.guard(func(w http.ResponseWriter, r *http.Request) {
		type durOut struct {
			Degraded               bool    `json:"degraded"`
			SnapshotSeq            int     `json:"snapshotSeq"`
			Checkpoints            int64   `json:"checkpoints"`
			AppendsSinceCheckpoint int64   `json:"appendsSinceCheckpoint"`
			WalAppends             int64   `json:"walAppends"`
			WalSyncs               int64   `json:"walSyncs"`
			SyncBatchMean          float64 `json:"syncBatchMean"`
			SyncBatchMax           int64   `json:"syncBatchMax"`
			WalSegments            int     `json:"walSegments"`
			WalLiveBytes           int64   `json:"walLiveBytes"`
			ReplayMs               float64 `json:"replayMs"`
			ReplayUsedSnapshot     bool    `json:"replayUsedSnapshot"`
			ReplayTail             int64   `json:"replayTail"`
		}
		type shard struct {
			Node       string       `json:"node"`
			Keys       int          `json:"keys"`
			Puts       int64        `json:"puts"`
			Metrics    core.Metrics `json:"protocol"`
			Durability *durOut      `json:"durability,omitempty"`
		}
		type phaseOut struct {
			Phase  string  `json:"phase"`
			N      int64   `json:"n"`
			P50Ms  float64 `json:"p50Ms"`
			P99Ms  float64 `json:"p99Ms"`
			MaxMs  float64 `json:"maxMs"`
			MeanMs float64 `json:"meanMs"`
		}
		out := struct {
			DC            string           `json:"dc"`
			RingEpoch     uint64           `json:"ringEpoch"`
			Shards        []shard          `json:"shards"`
			Transport     transport.Stats  `json:"transport"`
			Gateway       *gateway.Metrics `json:"gateway,omitempty"`
			Phases        []phaseOut       `json:"phases,omitempty"`
			TraceEvents   uint64           `json:"traceEvents,omitempty"`
			TraceRetained int              `json:"traceRetained,omitempty"`
		}{DC: dc.String(), RingEpoch: uint64(cl.Ring().Epoch()), Transport: net.Stats()}
		for _, n := range d.Nodes {
			sh := shard{
				Node:    string(n.ID()),
				Keys:    n.Store().Len(),
				Puts:    n.Store().Puts(),
				Metrics: n.Metrics(),
			}
			if d.Durable {
				d := n.Durability()
				do := &durOut{
					Degraded:               d.Degraded,
					SnapshotSeq:            d.SnapshotSeq,
					Checkpoints:            d.Checkpoints,
					AppendsSinceCheckpoint: d.AppendsSinceCheckpoint,
					WalAppends:             d.Store.Appends,
					WalSyncs:               d.Store.Syncs,
					SyncBatchMax:           d.Store.MaxBatch,
					WalSegments:            d.Store.Segments,
					WalLiveBytes:           d.Store.LiveBytes,
					ReplayMs:               float64(d.Replay.Duration) / float64(time.Millisecond),
					ReplayUsedSnapshot:     d.Replay.UsedSnapshot,
					ReplayTail:             d.Replay.Tail,
				}
				if do.WalSyncs > 0 {
					do.SyncBatchMean = float64(d.Store.SyncedAppends) / float64(do.WalSyncs)
				}
				sh.Durability = do
			}
			out.Shards = append(out.Shards, sh)
		}
		if d.Gateway != nil {
			m := d.Gateway.Metrics()
			out.Gateway = &m
		}
		if rec != nil {
			ms := func(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }
			for _, p := range rec.Phases() {
				out.Phases = append(out.Phases, phaseOut{
					Phase:  p.Key.String(),
					N:      p.Hist.N,
					P50Ms:  ms(p.Hist.Quantile(0.50)),
					P99Ms:  ms(p.Hist.Quantile(0.99)),
					MaxMs:  ms(p.Hist.Max),
					MeanMs: p.Hist.Mean() / float64(time.Millisecond),
				})
			}
			out.TraceEvents = rec.Events()
			out.TraceRetained = len(rec.Bundle())
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	}))
	mux.HandleFunc("/trace", state.guard(func(w http.ResponseWriter, r *http.Request) {
		if rec == nil {
			http.Error(w, "flight recorder off (start mdcc-server with -trace)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		full := r.URL.Query().Get("full") != ""
		bundle := rec.Bundle()
		for _, t := range bundle {
			if full {
				fmt.Fprintln(w, t.Timeline())
			} else {
				fmt.Fprintln(w, t.Compact())
			}
		}
		if len(bundle) == 0 {
			fmt.Fprintln(w, "(no traces retained yet)")
		}
	}))
	endpoints := "/healthz, /metrics, /trace"
	if profile {
		// The standard pprof handlers, mounted explicitly because this
		// mux is not http.DefaultServeMux. Index serves the named
		// profiles (heap, goroutine, block, mutex, threadcreate, ...).
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		endpoints += ", /debug/pprof/*"
	}
	go func() {
		log.Printf("http endpoints on %s (%s)", addr, endpoints)
		if err := http.ListenAndServe(addr, mux); err != nil {
			log.Printf("http: %v", err)
		}
	}()
	return state
}
