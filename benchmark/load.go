package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mdcc"
)

// clientSessions is how many sessions (TCP: connections) carry the load.
// Callers are goroutines multiplexed on them.
const clientSessions = 2

// maxOutstanding bounds the paced generator's in-flight transactions;
// reaching it blocks the generator, which shows as generator lag and as
// latency (latency counts from the due time).
const maxOutstanding = 8192

// driver issues the workload's transactions against a deployment and
// keeps the per-key ledger the verify step checks.
type driver struct {
	s     spec
	d     *deployment
	keys  []mdcc.Key
	start int          // seeded start of the key walk
	next  atomic.Int64 // transaction counter, shared by every phase

	acked   []atomic.Int64 // per key: commits acknowledged
	unknown []atomic.Int64 // per key: commits whose outcome the client never learned
}

func newDriver(s spec, d *deployment, seed int64) *driver {
	keys := make([]mdcc.Key, s.keys)
	for k := range keys {
		keys[k] = s.key(k)
	}
	return &driver{
		s: s, d: d, keys: keys,
		start:   int(uint64(seed) * 2654435761 % uint64(s.keys)),
		acked:   make([]atomic.Int64, s.keys),
		unknown: make([]atomic.Int64, s.keys),
	}
}

// outcome of one transaction attempt.
type outcome struct {
	committed bool
	readNs    int64 // rmw only
	commitNs  int64
}

// txn runs transaction number i: the key comes from the permutation walk.
func (dr *driver) txn(i int64) outcome {
	k := (dr.start + int(i%int64(dr.s.keys))*stride) % dr.s.keys
	sess := dr.d.sessions[i%clientSessions]
	key := dr.keys[k]
	var out outcome
	t0 := time.Now()
	var up mdcc.Update
	if dr.s.commute {
		up = mdcc.Commutative(key, map[string]int64{stockAttr: -1})
	} else {
		val, ver, exists, err := sess.Read(key)
		out.readNs = int64(time.Since(t0))
		if err != nil || !exists {
			return out
		}
		up = mdcc.Physical(key, ver, val.WithAttr(counterAttr, val.Attr(counterAttr)+1))
	}
	t1 := time.Now()
	ok, err := sess.Commit(up)
	out.commitNs = int64(time.Since(t1))
	switch {
	case err != nil:
		// A timeout or a lost acknowledgement: the write may have landed.
		dr.unknown[k].Add(1)
	case ok:
		dr.acked[k].Add(1)
		out.committed = true
	}
	return out
}

// settle is how long the load waits after the inserts are acknowledged
// when it cannot see the replicas (mdcc.StartCluster keeps them private).
// An acknowledgement needs only a fast quorum; the remaining replica
// applies the insert one one-way latency later (at most 135 ms x 0.3, and
// the stores are in memory), and a transaction that reaches it first
// would be rejected there.
const settle = 250 * time.Millisecond

// awaitVisible returns once every replica holds every key. Where the
// benchmark assembled the storage nodes it asks their stores, so a slow
// disk delays setup instead of failing the warm-up.
func (dr *driver) awaitVisible() error {
	if len(dr.d.nodes) == 0 {
		time.Sleep(settle)
		return nil
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, n := range dr.d.nodes {
		for _, key := range dr.keys {
			for !n.Store().Exists(key) {
				if time.Now().After(deadline) {
					return fmt.Errorf("preload: %s never became visible on %s", key, n.ID())
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	return nil
}

// preload inserts every key and waits until every replica shows it.
func (dr *driver) preload() error {
	const perTxn = 50
	var wg sync.WaitGroup
	errs := make(chan error, dr.s.keys/perTxn+1)
	sem := make(chan struct{}, 32)
	for lo := 0; lo < dr.s.keys; lo += perTxn {
		hi := min(lo+perTxn, dr.s.keys)
		wg.Add(1)
		sem <- struct{}{}
		go func(lo, hi int) {
			defer wg.Done()
			defer func() { <-sem }()
			ups := make([]mdcc.Update, 0, hi-lo)
			for k := lo; k < hi; k++ {
				v := mdcc.Value{Attrs: map[string]int64{counterAttr: 0}}
				if dr.s.commute {
					v = mdcc.Value{Attrs: map[string]int64{stockAttr: initialStock}}
				}
				ups = append(ups, mdcc.Insert(dr.keys[k], v))
			}
			ok, err := dr.d.sessions[(lo/perTxn)%clientSessions].Commit(ups...)
			if err != nil || !ok {
				errs <- fmt.Errorf("preload keys %d..%d: committed=%v err=%v", lo, hi, ok, err)
			}
		}(lo, hi)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	return dr.awaitVisible()
}

// closedCount runs exactly n transactions closed-loop with the
// workload's K callers (the warm-up).
func (dr *driver) closedCount(n int) (committed int64) {
	var done atomic.Int64
	var left atomic.Int64
	left.Store(int64(n))
	var wg sync.WaitGroup
	for c := 0; c < min(dr.s.callers, n); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for left.Add(-1) >= 0 {
				if dr.txn(dr.next.Add(1) - 1).committed {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return done.Load()
}

// pacedResult holds what the recorded window of a paced phase saw.
type pacedResult struct {
	attempted, committed int64
	latNs                []int64 // due → done, committed transactions
	readNs, commitNs     []int64
	begin                time.Time
	dueNs                []int64 // due time since begin, parallel to latNs (for client spans)
	genLagMaxNs          int64
	window               time.Duration
	cpu                  time.Duration // process user+sys over the window
	envelopes            int64
}

// paced runs the open loop: a 1 ms tick issues every transaction whose
// due time has passed, at the workload's rate R. The first ramp is
// discarded; the recorded window is the rest. Latency counts from the
// due time, so a stall is charged to every transaction it delays.
func (dr *driver) paced(ramp, total time.Duration, atRecordStart func()) pacedResult {
	rate := dr.s.rate
	nTotal := int(total.Seconds() * float64(rate))
	nRamp := int(ramp.Seconds() * float64(rate))
	nRec := nTotal - nRamp
	type slot struct {
		lat, read, commit int64
		ok                bool
	}
	slots := make([]slot, nRec)
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	var res pacedResult
	var cpu0 time.Duration
	var env0 int64
	var recStart time.Time

	begin := time.Now()
	res.begin = begin
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	issued := 0
	for issued < nTotal {
		<-tick.C
		due := int(time.Since(begin).Seconds() * float64(rate))
		for ; issued < min(due, nTotal); issued++ {
			if issued == nRamp {
				if atRecordStart != nil {
					atRecordStart()
				}
				cpu0, env0, recStart = cpuTime(), dr.d.stats().MsgsSent, time.Now()
			}
			dueAt := begin.Add(time.Duration(float64(issued) / float64(rate) * float64(time.Second)))
			sem <- struct{}{}
			if lag := int64(time.Since(dueAt)); issued >= nRamp && lag > res.genLagMaxNs {
				res.genLagMaxNs = lag
			}
			wg.Add(1)
			go func(j int, dueAt time.Time) {
				defer wg.Done()
				o := dr.txn(dr.next.Add(1) - 1)
				<-sem
				if j >= nRamp {
					slots[j-nRamp] = slot{int64(time.Since(dueAt)), o.readNs, o.commitNs, o.committed}
				}
			}(issued, dueAt)
		}
	}
	wg.Wait()
	res.window = time.Since(recStart)
	res.cpu = cpuTime() - cpu0
	res.envelopes = dr.d.stats().MsgsSent - env0
	res.attempted = int64(nRec)
	for j, sl := range slots {
		if !sl.ok {
			continue
		}
		res.committed++
		res.latNs = append(res.latNs, sl.lat)
		res.readNs = append(res.readNs, sl.read)
		res.commitNs = append(res.commitNs, sl.commit)
		res.dueNs = append(res.dueNs, int64(float64(j+nRamp)/float64(rate)*float64(time.Second)))
	}
	return res
}

// closedResult holds what the recorded window of a closed phase saw.
type closedResult struct {
	attempted, committed int64
	window               time.Duration
	cpu                  time.Duration
	perSecond            []int64 // commits in each whole second of the window
}

// closed runs K callers, each issuing its next transaction when the
// last returns. Transactions completing in the ramp are discarded.
func (dr *driver) closed(ramp, total time.Duration) closedResult {
	begin := time.Now()
	recStart, end := begin.Add(ramp), begin.Add(total)
	buckets := make([]atomic.Int64, int((total-ramp)/time.Second)+1)
	var attempted, committed atomic.Int64
	var cpu0 time.Duration
	var once sync.Once
	var wg sync.WaitGroup
	for c := 0; c < dr.s.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				o := dr.txn(dr.next.Add(1) - 1)
				now := time.Now()
				if now.Before(recStart) || !now.Before(end) {
					continue
				}
				once.Do(func() { cpu0 = cpuTime() })
				attempted.Add(1)
				if o.committed {
					committed.Add(1)
					buckets[now.Sub(recStart)/time.Second].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	res := closedResult{
		attempted: attempted.Load(),
		committed: committed.Load(),
		window:    total - ramp,
		cpu:       cpuTime() - cpu0,
	}
	for i := 0; i < int((total-ramp)/time.Second); i++ {
		res.perSecond = append(res.perSecond, buckets[i].Load())
	}
	return res
}
