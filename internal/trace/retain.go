package trace

import (
	"sort"
	"time"
)

// watchWindow is how many appends after retention a trace keeps
// absorbing trailing events (visibility execution, feed publishes for
// its keys). Count-based — never wall-clock — so retention is
// deterministic under the simulator.
const watchWindow = 4096

// Trace is one transaction's assembled cross-node timeline.
type Trace struct {
	Tx      string
	Keys    []string
	Dur     time.Duration
	Outcome uint8    // FlagCommit / FlagAbort / FlagUnknown
	Reasons []string // why it was retained: slow, aborted, unknown, recovered, wrong-shard, slowest
	Events  []Event  // causally ordered (by Seq)

	maxSeq uint64 // highest assembled Seq, for trailing-event dedup
}

func (t *Trace) hasKey(k string) bool {
	for _, tk := range t.Keys {
		if tk == k {
			return true
		}
	}
	return false
}

func (t *Trace) hasReason(r string) bool {
	for _, tr := range t.Reasons {
		if tr == r {
			return true
		}
	}
	return false
}

// watchEnt is a retained trace still absorbing trailing events.
type watchEnt struct {
	t        *Trace
	deadline uint64 // append seq after which the watch expires
}

// Complete reports a transaction's end of life. keys is its write set
// (or read key), start/end are transport-clock nanos, outcome is one
// of FlagCommit/FlagAbort/FlagUnknown, and recovered/rerouted say
// whether it took a recovery hop or a wrong-shard retry. top marks a
// gateway-level completion: when a gateway has called ClaimTop,
// coordinator-level completions (top=false) are ignored for retention
// so each transaction is considered exactly once, at the tier that
// saw its whole admit→ack life.
//
// The common case — a committed, unremarkable transaction faster than
// both the slow threshold and the current slowest-N bar — returns
// after a few atomic loads without taking any lock.
func (rec *Recorder) Complete(tx string, keys []string, start, end int64, outcome uint8, recovered, rerouted bool, top bool) {
	rec.completeAt(tx, keys, 0, start, end, outcome, recovered, rerouted, top)
}

// CompleteFrom is the gateway-tier Complete (top is implied): loSeq —
// the append sequence of the gateway's admit event — is the explicit
// lower bound for tx-less event matching, so queue and coalesce events
// recorded before the transaction had an id still join the assembled
// timeline.
func (rec *Recorder) CompleteFrom(tx string, keys []string, loSeq uint64, start, end int64, outcome uint8, recovered, rerouted bool) {
	rec.completeAt(tx, keys, loSeq, start, end, outcome, recovered, rerouted, true)
}

func (rec *Recorder) completeAt(tx string, keys []string, loSeq uint64, start, end int64, outcome uint8, recovered, rerouted bool, top bool) {
	if rec == nil {
		return
	}
	if rec.gwTop.Load() && !top {
		return
	}
	dur := time.Duration(end - start)
	interesting := outcome != FlagCommit || recovered || rerouted || dur > rec.cfg.SlowThreshold
	if !interesting {
		bar := rec.slowBar.Load()
		if bar >= 0 && int64(dur) <= bar {
			return // fast, boring, and not among the N slowest
		}
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()

	var reasons []string
	switch outcome {
	case FlagAbort:
		reasons = append(reasons, "aborted")
	case FlagUnknown:
		reasons = append(reasons, "unknown")
	}
	if recovered {
		reasons = append(reasons, "recovered")
	}
	if rerouted {
		reasons = append(reasons, "wrong-shard")
	}
	if dur > rec.cfg.SlowThreshold {
		reasons = append(reasons, "slow")
	}

	slowCandidate := rec.beatsSlowestLocked(dur)
	if len(reasons) == 0 && !slowCandidate {
		return // bar moved between the atomic check and the lock
	}
	retain := len(reasons) > 0
	if w := rec.clk.Load() / budgetWindow; w != rec.window {
		rec.window, rec.spent = w, 0
	}
	if retain && rec.spent >= assemblyBudget {
		rec.dropped++
		retain = false
	}
	if !retain && !slowCandidate {
		return
	}

	t := rec.assembleLocked(tx, keys, loSeq)
	t.Dur, t.Outcome, t.Reasons = dur, outcome, reasons
	if retain {
		rec.spent++
		rec.retainLocked(t)
	}
	if slowCandidate {
		rec.insertSlowestLocked(t)
	}
}

// beatsSlowestLocked reports whether dur belongs in the slowest-N list.
func (rec *Recorder) beatsSlowestLocked(dur time.Duration) bool {
	if len(rec.slowest) < slowestN {
		return true
	}
	return dur > rec.slowest[len(rec.slowest)-1].Dur
}

// insertSlowestLocked places t into the duration-sorted slowest list,
// evicting the fastest member when over capacity, and refreshes the
// lock-free admission bar.
func (rec *Recorder) insertSlowestLocked(t *Trace) {
	i := sort.Search(len(rec.slowest), func(i int) bool { return rec.slowest[i].Dur < t.Dur })
	rec.slowest = append(rec.slowest, nil)
	copy(rec.slowest[i+1:], rec.slowest[i:])
	rec.slowest[i] = t
	if len(rec.slowest) > slowestN {
		rec.slowest = rec.slowest[:slowestN]
	}
	if len(rec.slowest) == slowestN {
		rec.slowBar.Store(int64(rec.slowest[len(rec.slowest)-1].Dur))
	}
}

// retainLocked appends t to the bounded retained FIFO and registers a
// trailing-event watch for it.
func (rec *Recorder) retainLocked(t *Trace) {
	rec.retained = append(rec.retained, t)
	if len(rec.retained) > retainLimit {
		rec.retained = rec.retained[1:]
	}
	rec.watch = append(rec.watch, watchEnt{t: t, deadline: rec.clk.Load() + watchWindow})
	rec.watchN.Store(int32(len(rec.watch)))
}

// assembleLocked gathers tx's events from every ring into one
// causally ordered Trace: events carrying the TxID, plus tx-less
// events (gateway admit/queue/coalesce, feed publishes, visibility
// keep-alives) on its keys from loSeq onward. A zero loSeq falls back
// to the transaction's first tx-stamped event.
func (rec *Recorder) assembleLocked(tx string, keys []string, loSeq uint64) *Trace {
	t := &Trace{Tx: tx, Keys: append([]string(nil), keys...)}
	var evs, keyed []Event
	minSeq := ^uint64(0)
	for _, r := range rec.rings {
		for _, ev := range r.Snapshot() {
			switch {
			case ev.Tx == tx && tx != "":
				evs = append(evs, ev)
				minSeq = min(minSeq, ev.Seq)
			case ev.Tx == "" && t.hasKey(ev.Key):
				keyed = append(keyed, ev)
			}
		}
	}
	if loSeq > 0 {
		minSeq = loSeq
	}
	for _, ev := range keyed {
		if ev.Seq >= minSeq {
			evs = append(evs, ev)
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	t.Events = evs
	if n := len(evs); n > 0 {
		t.maxSeq = evs[n-1].Seq
	}
	return t
}

// observe is the trailing-event hook called from Ring.Add while any
// watch is live: it appends matching events to retained traces and
// expires watches whose append window has passed.
func (rec *Recorder) observe(ev Event) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	live := rec.watch[:0]
	for _, w := range rec.watch {
		if ev.Seq > w.deadline {
			continue // expired
		}
		live = append(live, w)
		match := ev.Tx != "" && ev.Tx == w.t.Tx
		if !match && ev.Tx == "" && w.t.hasKey(ev.Key) {
			match = true
		}
		if match && ev.Seq > w.t.maxSeq {
			w.t.Events = append(w.t.Events, ev)
			w.t.maxSeq = ev.Seq
		}
	}
	rec.watch = live
	rec.watchN.Store(int32(len(rec.watch)))
}

// Retained returns copies of the retained traces, oldest first.
func (rec *Recorder) Retained() []*Trace {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	out := make([]*Trace, 0, len(rec.retained))
	for _, t := range rec.retained {
		out = append(out, t.copyLocked())
	}
	return out
}

// Slowest returns copies of the N slowest completed transactions,
// slowest first.
func (rec *Recorder) Slowest() []*Trace {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	out := make([]*Trace, 0, len(rec.slowest))
	for _, t := range rec.slowest {
		c := t.copyLocked()
		if !c.hasReason("slowest") {
			c.Reasons = append(c.Reasons, "slowest")
		}
		out = append(out, c)
	}
	return out
}

// Bundle returns the diagnosis bundle in its fixed order — the N
// slowest transactions (always populated), then every retained trace
// (aborted, outcome-unknown, recovered, wrong-shard-retried, slow) —
// with each identified transaction once. Traces without a protocol id
// (a killed gateway's "?") are all kept.
func (rec *Recorder) Bundle() []*Trace {
	var out []*Trace
	seen := make(map[string]bool)
	for _, t := range append(rec.Slowest(), rec.Retained()...) {
		if t.Tx != "" && t.Tx != "?" {
			if seen[t.Tx] {
				continue
			}
			seen[t.Tx] = true
		}
		out = append(out, t)
	}
	return out
}

// Dropped reports how many retain-worthy transactions were not
// assembled because their window's assembly budget was spent.
func (rec *Recorder) Dropped() int {
	if rec == nil {
		return 0
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.dropped
}

func (t *Trace) copyLocked() *Trace {
	c := *t
	c.Keys = append([]string(nil), t.Keys...)
	c.Reasons = append([]string(nil), t.Reasons...)
	c.Events = append([]Event(nil), t.Events...)
	return &c
}

// Assemble builds a timeline for an arbitrary transaction id from
// whatever is still in the rings (diagnosis of transactions that were
// never retained). Keys widen the match to tx-less feed events.
func (rec *Recorder) Assemble(tx string, keys []string) *Trace {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.assembleLocked(tx, keys, 0)
}

// TxsTouching scans the rings for distinct transactions with an event
// on any of the given keys, newest-first, up to max. Used to turn a
// key-level invariant violation into candidate timelines.
func (rec *Recorder) TxsTouching(keys []string, max int) []string {
	if rec == nil || len(keys) == 0 || max <= 0 {
		return nil
	}
	in := make(map[string]bool, len(keys))
	for _, k := range keys {
		in[k] = true
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	type hit struct {
		tx  string
		seq uint64
	}
	latest := make(map[string]uint64)
	for _, r := range rec.rings {
		for _, ev := range r.Snapshot() {
			if ev.Tx != "" && in[ev.Key] {
				if ev.Seq > latest[ev.Tx] {
					latest[ev.Tx] = ev.Seq
				}
			}
		}
	}
	hits := make([]hit, 0, len(latest))
	for tx, seq := range latest {
		hits = append(hits, hit{tx, seq})
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].seq > hits[j].seq })
	if len(hits) > max {
		hits = hits[:max]
	}
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.tx
	}
	return out
}
