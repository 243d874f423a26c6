package bench

import (
	"time"

	"mdcc/internal/core"
	"mdcc/internal/gateway"
	"mdcc/internal/record"
	"mdcc/internal/stats"
	"mdcc/internal/topology"
)

// Read-mostly benchmark: the dominant access pattern of real
// deployments (a 90/10 read/write mix, realized as a 90/10 split of
// closed-loop reader and writer sessions) driven twice through the
// same gateway deployment — once with reads as per-key RPC round
// trips to the DC-local replica (the pre-tier behavior, the baseline
// arm) and once through the learned-replica read tier (reads served
// from the gateway's feed-materialized memory). Storage nodes carry the same
// per-message service time as the saturation bench, so the baseline's
// read RPCs compete with the write path for acceptor CPU and the
// comparison measures exactly what the tier buys: reads per second,
// read latency, and read RPCs that vanish from the wire.
//
// Both arms model the client⇄gateway hop identically (one intra-DC
// round trip per read, added to the measured latency and to the
// closed-loop pacing), so the arms differ only in what happens behind
// the gateway.

// ReadRun is one read-mostly arm's harvest.
type ReadRun struct {
	Mode     string `json:"mode"` // "rpc-reads" | "read-tier"
	Sessions int    `json:"sessions"`

	Reads       int64   `json:"reads"` // consumed in the measure window
	ReadsPerSec float64 `json:"readsPerSec"`
	ReadP50Ms   float64 `json:"readP50Ms"`
	ReadP99Ms   float64 `json:"readP99Ms"`

	WriteCommits int64   `json:"writeCommits"`
	WriteAborts  int64   `json:"writeAborts"`
	WriteTPS     float64 `json:"writeTPS"`

	// Steady-state read traffic inside the measure window
	// (counter-verified): RPC reads dispatched behind the gateway,
	// normalized per consumed read, plus the cross-DC read messages
	// (retry rotations to other DCs and the non-local legs of quorum
	// reads).
	SteadyReadRPCs        int64   `json:"steadyReadRPCs"`
	SteadyReadRPCsPerRead float64 `json:"steadyReadRPCsPerRead"`
	CrossDCReadMsgs       int64   `json:"crossDCReadMsgs"`

	// AcceptorMsgs counts physical envelopes delivered to storage
	// nodes over the whole run (reads compete with writes for the
	// same acceptor service time).
	AcceptorMsgs int64 `json:"acceptorMsgs"`

	Gateway *gateway.Metrics `json:"gateway,omitempty"`
}

// ReadComparison is the read-mostly benchmark result
// (GatewayComparison.ReadMostly).
type ReadComparison struct {
	Sessions    int     `json:"sessions"`
	ReadFrac    float64 `json:"readFrac"`
	Measure     string  `json:"measure"`
	Baseline    ReadRun `json:"baseline"`
	Tier        ReadRun `json:"tier"`
	SpeedupRead float64 `json:"speedupReads"` // tier reads/s ÷ baseline reads/s
}

// ReadMostly runs both read arms and compares.
func ReadMostly(seed int64, sc GatewayScale) ReadComparison {
	base := runReadArm(seed, sc, false)
	tier := runReadArm(seed, sc, true)
	cmp := ReadComparison{
		Sessions: sc.Sessions,
		ReadFrac: readFrac,
		Measure:  sc.ReadMeasure.String(),
		Baseline: base,
		Tier:     tier,
	}
	if base.ReadsPerSec > 0 {
		cmp.SpeedupRead = tier.ReadsPerSec / base.ReadsPerSec
	}
	return cmp
}

func runReadArm(seed int64, sc GatewayScale, tier bool) ReadRun {
	d, _, _ := newHotKeyDeployment(seed, sc, true,
		gateway.Tuning{MaxInflight: 1 << 16, MaxQueue: 1 << 16, DisableReadTier: !tier}, nil)
	cl, net, gws := d.cl, d.net, d.gws

	res := ReadRun{Mode: "rpc-reads", Sessions: sc.Sessions}
	if tier {
		res.Mode = "read-tier"
	}
	rng := net.Rand()
	start := net.Now()
	measureFrom := start.Add(sc.ReadWarmup)
	measureTo := measureFrom.Add(sc.ReadMeasure)
	lat := stats.NewSample(1 << 16)
	// The client⇄gateway hop, identical for both arms: one intra-DC
	// round trip per read, paid in latency and in closed-loop pacing.
	hop := topology.OneWay(topology.USWest, topology.USWest)

	// Steady-state counters: snapshot at the measure boundary, so the
	// warmup's cold-miss fills don't count against the steady state.
	var gwAtWarm gateway.Metrics
	var coordAtWarm core.CoordMetrics
	sumCoord := func() core.CoordMetrics {
		var m core.CoordMetrics
		for _, dc := range topology.AllDCs() {
			m.Add(gws[dc].CoordMetrics())
		}
		return m
	}
	net.At(sc.ReadWarmup, func() {
		gwAtWarm = d.gatewayMetrics()
		coordAtWarm = sumCoord()
	})

	// The readFrac mix is a session split — readFrac of the sessions
	// are closed-loop readers, the rest closed-loop writers — so read
	// throughput is not artificially clamped by write latency inside
	// one loop (a mixed closed loop spends ~all its cycle time waiting
	// on commits, measuring the write path twice and the read path not
	// at all). The aggregate offered mix is the same 90/10.
	readers := int(float64(sc.Sessions) * readFrac)
	for ci, c := range cl.Clients {
		g := gws[c.DC]
		ci := ci
		if ci < readers {
			var loop func()
			loop = func() {
				now := net.Now()
				if !now.Before(measureTo) {
					return
				}
				key := hotKey(rng.Intn(hotKeys))
				began := now
				g.ReadFloor(key, 0, func(record.Value, record.Version, bool) {
					// Response hop back to the client, then the next op.
					net.After(cl.Clients[ci].ID, 2*hop, func() {
						end := net.Now()
						if !end.Before(measureFrom) && end.Before(measureTo) {
							res.Reads++
							lat.Add(float64(end.Sub(began)) / float64(time.Millisecond))
						}
						loop()
					})
				})
			}
			net.At(0, loop)
			continue
		}
		var loop func()
		loop = func() {
			if !net.Now().Before(measureTo) {
				return
			}
			key := hotKey(rng.Intn(hotKeys))
			g.Commit([]record.Update{record.Commutative(key, map[string]int64{"units": -1})},
				func(ok bool, err error) {
					end := net.Now()
					if !end.Before(measureFrom) && end.Before(measureTo) {
						if ok && err == nil {
							res.WriteCommits++
						} else {
							res.WriteAborts++
						}
					}
					loop()
				})
		}
		net.At(0, loop)
	}
	net.RunFor(sc.ReadWarmup + sc.ReadMeasure + 10*time.Second)

	if secs := sc.ReadMeasure.Seconds(); secs > 0 {
		res.ReadsPerSec = float64(res.Reads) / secs
		res.WriteTPS = float64(res.WriteCommits) / secs
	}
	res.ReadP50Ms = lat.Percentile(50)
	res.ReadP99Ms = lat.Percentile(99)
	for _, n := range cl.Storage {
		res.AcceptorMsgs += net.DeliveredTo(n.ID)
	}
	gwEnd := d.gatewayMetrics()
	coordEnd := sumCoord()
	if tier {
		res.SteadyReadRPCs = (gwEnd.ReadRPCs - gwAtWarm.ReadRPCs) + (gwEnd.ReadQuorums - gwAtWarm.ReadQuorums)
	} else {
		// Baseline reads are one RPC each by construction; retries and
		// quorum reads come on top (counted below).
		res.SteadyReadRPCs = res.Reads
	}
	res.CrossDCReadMsgs = (coordEnd.ReadRetries - coordAtWarm.ReadRetries) +
		4*(gwEnd.ReadQuorums-gwAtWarm.ReadQuorums)
	if res.Reads > 0 {
		res.SteadyReadRPCsPerRead = float64(res.SteadyReadRPCs) / float64(res.Reads)
	}
	agg := gwEnd
	agg.Finalize()
	res.Gateway = &agg
	return res
}
