package main

import (
	"runtime"
	"runtime/metrics"
	"sort"

	"mdcc/internal/core"
	"mdcc/internal/gateway"
	"mdcc/internal/topology"
	"mdcc/internal/wal"
)

// counters are the program's public counters the probe reads while the
// deployment is quiet (the coordinators' and nodes' counters are plain
// fields owned by their mailbox goroutines).
type counters struct {
	gw    gateway.Metrics
	coord core.CoordMetrics
	wal   wal.Stats // store + oplog, summed over the five nodes
}

func readCounters(d *deployment) counters {
	var c counters
	if d.gw != nil {
		c.gw = d.gw.Metrics()
		c.coord = d.gw.CoordMetrics()
	}
	for _, co := range d.coords {
		c.coord.Add(co.Metrics())
	}
	for _, n := range d.nodes {
		du := n.Durability()
		for _, st := range []wal.Stats{du.Store, du.Oplog} {
			c.wal.Syncs += st.Syncs
			c.wal.SyncedAppends += st.SyncedAppends
			c.wal.LiveBytes += st.LiveBytes
		}
	}
	return c
}

// window is what the probe reads when the recorded window opens and
// closes; these are safe to read under load.
type window struct {
	mem       runtime.MemStats
	gcCPU     float64 // seconds
	wireBytes int64
	dropped   int64
}

func readWindow(d *deployment) window {
	var w window
	runtime.ReadMemStats(&w.mem)
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		w.gcCPU = sample[0].Value.Float64()
	}
	st := d.stats()
	w.wireBytes, w.dropped = st.BytesSent, st.DroppedNoRoute+st.DroppedQueueFull+st.DroppedConnDown
	return w
}

// probe brackets the traced paced phase: the counters before its ramp
// and after its last transaction, the window readings around the
// recorded part.
type probe struct {
	d      *deployment
	c0, c1 counters
	w0, w1 window
}

func newProbe(d *deployment) *probe { return &probe{d: d, c0: readCounters(d)} }
func (p *probe) begin()             { p.w0 = readWindow(p.d) }
func (p *probe) end()               { p.w1, p.c1 = readWindow(p.d), readCounters(p.d) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hop is one step of the path a transaction's acknowledgement waits for.
type hop struct {
	r        role
	types    []msgType
	optional bool // taken by only some transactions: weighted by its count per commit
}

var blockingPath = []hop{
	{roleGateway, []msgType{tGwRead}, true},
	{roleAcceptor, []msgType{tRead}, true},
	{roleCoord, []msgType{tReadReply}, true},
	{roleGateway, []msgType{tGwTx}, true},
	{roleAcceptor, []msgType{tProposeFast, tProposeBatch}, false},
	{roleCoord, []msgType{tVote, tVoteBatch}, false},
}

// injectedRTT is the network time the configuration adds to a
// transaction: the round trip to the fast quorum's slowest member, plus,
// for read-modify-write, the round trip to the local replica.
func injectedRTT(s spec) float64 {
	if s.tcp {
		return 0
	}
	var rtts []float64
	for _, dc := range topology.AllDCs() {
		rtts = append(rtts, float64(topology.RTT(homeDC, dc)))
	}
	sort.Float64s(rtts)
	_, fast := topology.Quorums(len(rtts))
	ns := rtts[fast-1]
	if !s.commute {
		ns += rtts[0]
	}
	return ms(ns * s.scale)
}

// layerMetrics derives every per-layer metric of a traced run.
func layerMetrics(rep *report, s spec, keyHeap uint64, plain, traced pacedResult, cl closedResult, p *probe, tr *tracer) {
	commits := float64(traced.committed)
	perTxn := func(x float64) float64 { return ratio(x, commits) }
	lat := msSample(traced.latNs)
	p50 := lat.Median()

	rep.add("client.txn_mean_ms", lat.Mean(), "ms")
	rep.add("client.txn_p95_ms", lat.Percentile(95), "ms")
	rep.add("client.txn_p99_ms", lat.Percentile(99), "ms")
	rep.add("client.read_p50_ms", msSample(traced.readNs).Median(), "ms")
	rep.add("client.commit_p50_ms", msSample(traced.commitNs).Median(), "ms")
	rep.add("client.gen_lag_max_ms", ms(float64(traced.genLagMaxNs)), "ms")
	rep.add("client.closed_commit_tps", ratio(float64(cl.committed), cl.window.Seconds()), "1/s")
	lo, hi := int64(0), int64(0)
	for i, n := range cl.perSecond {
		if i == 0 || n < lo {
			lo = n
		}
		hi = max(hi, n)
	}
	rep.add("client.closed_tps_min_1s", float64(lo), "1/s")
	rep.add("client.closed_tps_max_1s", float64(hi), "1/s")
	rep.add("client.closed_cpu_us_per_txn", ratio(float64(cl.cpu.Microseconds()), float64(cl.committed)), "us")

	hs := tr.aggregate()
	g0, g1 := p.c0.gw, p.c1.gw
	gwCommits := float64(g1.Commits - g0.Commits)
	windows := 0.0
	if p.d.gw != nil {
		tun := p.d.gw.Tuning()
		windows = ms(float64(tun.BatchWindow))
		if s.commute {
			windows += ms(float64(tun.CoalesceWindow))
		}
	}
	reads := float64((g1.LocalReads - g0.LocalReads) + (g1.ReadRPCs - g0.ReadRPCs) +
		(g1.ReadCoalesced - g0.ReadCoalesced) + (g1.ReadQuorums - g0.ReadQuorums))
	rep.add("gateway.coalesce_ratio", ratio(float64(g1.MergedUpdates-g0.MergedUpdates), float64(g1.Submitted-g0.Submitted)), "ratio")
	rep.add("gateway.merge_splits_per_ktxn", 1000*ratio(float64(g1.MergeSplits-g0.MergeSplits), gwCommits), "1")
	rep.add("gateway.batch_fan_in", ratio(float64(g1.BatchedMsgs-g0.BatchedMsgs), float64(g1.BatchEnvelopes-g0.BatchEnvelopes)), "1")
	rep.add("gateway.window_wait_ms", windows, "ms")
	rep.add("gateway.handle_us_per_txn", perTxn(float64(hs.byRole[roleGateway])/1e3), "us")
	rep.add("gateway.queue_depth_max", float64(g1.QueuePeak), "count")
	rep.add("gateway.admission_rejects", float64(g1.AdmissionRejects-g0.AdmissionRejects), "count")
	rep.add("gateway.local_read_frac", ratio(float64(g1.LocalReads-g0.LocalReads), reads), "ratio")

	c0, c1 := p.c0.coord, p.c1.coord
	phaseCommits := gwCommits // client transactions over the whole phase, ramp included
	if p.d.gw == nil {
		phaseCommits = float64(c1.Commits - c0.Commits)
	}
	rep.add("core.coord.fast_learn_share", ratio(float64(c1.FastLearns-c0.FastLearns),
		float64((c1.FastLearns-c0.FastLearns)+(c1.LeaderLearns-c0.LeaderLearns))), "ratio")
	rep.add("core.coord.recoveries_per_ktxn", 1000*ratio(float64(c1.Recoveries-c0.Recoveries), phaseCommits), "1")
	rep.add("core.coord.collisions_per_ktxn", 1000*ratio(float64(c1.Collisions-c0.Collisions), phaseCommits), "1")
	rep.add("core.coord.handle_us_per_txn", perTxn(float64(hs.byRole[roleCoord])/1e3), "us")
	for _, t := range []msgType{tVoteBatch, tReadReply} {
		rep.add("core.coord.handle_us."+msgTypeNames[t], hs.meanNs(roleCoord, t)/1e3, "us")
	}

	busiest := int64(0)
	for id, ns := range hs.byNode {
		if roleOf(id) == roleAcceptor {
			busiest = max(busiest, ns)
		}
	}
	rep.add("core.acceptor.handle_us_per_txn", perTxn(float64(hs.byRole[roleAcceptor])/1e3), "us")
	rep.add("core.acceptor.busy_share_max", ratio(float64(busiest), float64(traced.window)), "ratio")
	for _, t := range []msgType{tProposeBatch, tVisibility, tRead} {
		rep.add("core.acceptor.handle_us."+msgTypeNames[t], hs.meanNs(roleAcceptor, t)/1e3, "us")
	}

	for t := tOther; t < nMsgTypes; t++ {
		switch t {
		case tGwTx, tGwRead: // sent by the RPC clients, whose transports are not wrapped
			continue
		case tProposeFast, tVote, tVisibilityBatch: // the protocol sends the batched forms
			continue
		}
		rep.add("transport.msgs_per_txn."+msgTypeNames[t], perTxn(float64(tr.sends[t].Load())), "1")
	}
	var batchItems int64
	for t := range tr.items {
		batchItems += tr.items[t].Load()
	}
	rep.add("transport.batch_items_per_envelope", ratio(float64(batchItems), float64(tr.batchEnvs.Load())), "1")
	rep.add("transport.bytes_per_txn", perTxn(float64(p.w1.wireBytes-p.w0.wireBytes)), "B")
	rep.add("transport.dropped_msgs", float64(p.w1.dropped-p.w0.dropped), "count")
	rep.add("transport.flight_minus_injected_p50_us", 1e3*msSample(hs.allWait).Median(), "us")

	w0, w1 := p.c0.wal, p.c1.wal
	rep.add("wal.fsyncs_per_txn", ratio(float64(w1.Syncs-w0.Syncs), phaseCommits), "1")
	rep.add("wal.appends_per_fsync", ratio(float64(w1.SyncedAppends-w0.SyncedAppends), float64(w1.Syncs-w0.Syncs)), "1")
	rep.add("wal.bytes_per_txn", ratio(float64(w1.LiveBytes-w0.LiveBytes), phaseCommits), "B")

	m0, m1 := p.w0.mem, p.w1.mem
	rep.add("proc.cpu_us_per_txn", perTxn(float64(traced.cpu.Microseconds())), "us")
	rep.add("proc.allocs_per_txn", perTxn(float64(m1.Mallocs-m0.Mallocs)), "1")
	rep.add("proc.alloc_kb_per_txn", perTxn(float64(m1.TotalAlloc-m0.TotalAlloc)/1024), "KB")
	rep.add("proc.gc_cpu_share", ratio(p.w1.gcCPU-p.w0.gcCPU, traced.cpu.Seconds()), "ratio")
	rep.add("proc.gc_cycles", float64(m1.NumGC-m0.NumGC), "count")
	rep.add("proc.heap_kb_per_key", ratio(float64(keyHeap)/1024, float64(s.keys)), "KB")
	rep.add("proc.rss_peak_mb", rssPeakMB(), "MB")

	plainP50 := msSample(plain.latNs).Median()
	rep.add("trace.untraced_p50_ms", plainP50, "ms")
	rep.add("trace.traced_p50_ms", p50, "ms")
	rep.add("trace.overhead_pct", 100*ratio(p50-plainP50, plainP50), "%")
	rep.add("trace.spans", float64(len(tr.spans)), "count")

	// The ledger: where the median transaction's time goes. Each hop of
	// the blocking path adds its mean handler time and the median time
	// its message was in flight beyond the configured latency.
	var handlers, flight float64 // ms
	for _, h := range blockingPath {
		var ns, n float64
		var waits []int64
		for _, t := range h.types {
			ns += hs.typeNs[h.r][t]
			n += hs.typeN[h.r][t]
			waits = append(waits, hs.waitNs[h.r][t]...)
		}
		if n == 0 {
			continue
		}
		weight := 1.0
		if h.optional {
			weight = min(1, n/commits)
		}
		handlers += weight * ms(ns/n)
		flight += weight * msSample(waits).Median()
	}
	startLag := make([]int64, len(traced.latNs))
	for i := range startLag {
		startLag[i] = traced.latNs[i] - traced.readNs[i] - traced.commitNs[i]
	}
	lag := msSample(startLag).Median()
	rtt := injectedRTT(s)
	residual := p50 - lag - windows - rtt - handlers - flight
	rep.add("ledger.start_lag_ms", lag, "ms")
	rep.add("ledger.windows_ms", windows, "ms")
	rep.add("ledger.rtt_ms", rtt, "ms")
	rep.add("ledger.handlers_ms", handlers, "ms")
	rep.add("ledger.flight_ms", flight, "ms")
	rep.add("ledger.residual_ms", residual, "ms")
	rep.add("ledger.residual_pct", 100*ratio(residual, p50), "%")
}
