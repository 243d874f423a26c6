package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRingWraparound fills a ring past capacity and checks the
// snapshot holds exactly the last ringSize events in append order.
func TestRingWraparound(t *testing.T) {
	rec := New(Config{})
	r := rec.Ring("n1", 0)
	const n = ringSize + 34
	for i := 0; i < n; i++ {
		r.Add(Event{Stage: StageVote, Arg: int64(i)})
	}
	if r.Len() != n {
		t.Fatalf("Len = %d, want %d", r.Len(), n)
	}
	snap := r.Snapshot()
	if len(snap) != ringSize {
		t.Fatalf("snapshot holds %d events, want %d", len(snap), ringSize)
	}
	for i, ev := range snap {
		if want := int64(n - ringSize + i); ev.Arg != want {
			t.Fatalf("snapshot[%d].Arg = %d, want %d (oldest-first order)", i, ev.Arg, want)
		}
		if ev.Node != "n1" || ev.Seq == 0 {
			t.Fatalf("snapshot[%d] missing stamps: %+v", i, ev)
		}
		if i > 0 && ev.Seq <= snap[i-1].Seq {
			t.Fatalf("snapshot not in append order at %d", i)
		}
	}
}

// TestRingConcurrentAppend hammers one ring from many goroutines with
// four times its capacity, so writers lap each other; run under -race
// this proves the striped slot locks make wraparound safe.
func TestRingConcurrentAppend(t *testing.T) {
	rec := New(Config{})
	r := rec.Ring("n1", 0)
	const writers, per = 8, ringSize / 2
	var wg, rg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Add(Event{Stage: StageVote, Tx: "t", Arg: int64(w*per + i)})
			}
		}(w)
	}
	rg.Add(1)
	go func() { // concurrent readers must also be clean
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
	if r.Len() != writers*per {
		t.Fatalf("lost appends: Len = %d, want %d", r.Len(), writers*per)
	}
	snap := r.Snapshot()
	if len(snap) != ringSize {
		t.Fatalf("snapshot holds %d events, want %d", len(snap), ringSize)
	}
}

// TestTailRetention pins the retention predicate: fast commits are
// dropped; slow, aborted, recovered, wrong-shard and unknown-outcome
// transactions are kept with the right reasons.
func TestTailRetention(t *testing.T) {
	rec := New(Config{SlowThreshold: time.Millisecond})
	r := rec.Ring("n1", 0)
	at := int64(0)
	run := func(tx string, dur time.Duration, outcome uint8, recovered, rerouted bool) {
		start := at
		r.Add(Event{At: start, Tx: tx, Key: "k", Stage: StagePropose})
		at += int64(dur)
		r.Add(Event{At: at, Tx: tx, Stage: StageCommit, Flags: outcome})
		rec.Complete(tx, []string{"k"}, start, at, outcome, recovered, rerouted, false)
	}
	run("fast1", 100*time.Microsecond, FlagCommit, false, false)
	run("slow1", 5*time.Millisecond, FlagCommit, false, false)
	run("abort1", 200*time.Microsecond, FlagAbort, false, false)
	run("rec1", 300*time.Microsecond, FlagCommit, true, false)
	run("shard1", 250*time.Microsecond, FlagCommit, false, true)
	run("unk1", 150*time.Microsecond, FlagUnknown, false, false)
	run("fast2", 120*time.Microsecond, FlagCommit, false, false)

	want := map[string]string{
		"slow1":  "slow",
		"abort1": "aborted",
		"rec1":   "recovered",
		"shard1": "wrong-shard",
		"unk1":   "unknown",
	}
	got := map[string]*Trace{}
	for _, tr := range rec.Retained() {
		got[tr.Tx] = tr
	}
	if len(got) != len(want) {
		t.Fatalf("retained %d traces, want %d: %v", len(got), len(want), got)
	}
	for tx, reason := range want {
		tr := got[tx]
		if tr == nil {
			t.Fatalf("transaction %s not retained", tx)
		}
		if !tr.hasReason(reason) {
			t.Fatalf("%s retained with reasons %v, want %q", tx, tr.Reasons, reason)
		}
		if len(tr.Events) != 2 {
			t.Fatalf("%s assembled %d events, want 2", tx, len(tr.Events))
		}
	}
	if _, ok := got["fast1"]; ok {
		t.Fatalf("fast commit must not be retained")
	}

	// Slowest-N keeps the five largest durations regardless of
	// retention: fast1 is evicted, fast2 never enters.
	ids := make([]string, 0, slowestN)
	for _, tr := range rec.Slowest() {
		ids = append(ids, tr.Tx)
	}
	if got, want := strings.Join(ids, " "), "slow1 rec1 shard1 abort1 unk1"; got != want {
		t.Fatalf("slowest = [%s], want [%s]", got, want)
	}
}

// TestRetainedSetBounded: past retainLimit retained traces, the oldest
// is dropped first.
func TestRetainedSetBounded(t *testing.T) {
	rec := New(Config{})
	r := rec.Ring("n1", 0)
	for i := 0; i < retainLimit+3; i++ {
		tx := fmt.Sprintf("a%d", i)
		r.Add(Event{Tx: tx, Stage: StagePropose})
		rec.Complete(tx, nil, 0, int64(time.Microsecond), FlagAbort, false, false, false)
	}
	kept := rec.Retained()
	if len(kept) != retainLimit || kept[0].Tx != "a3" || kept[len(kept)-1].Tx != fmt.Sprintf("a%d", retainLimit+2) {
		t.Fatalf("retained %d traces from %s to %s, want %d from a3", len(kept), kept[0].Tx, kept[len(kept)-1].Tx, retainLimit)
	}
}

// TestAssemblyBudgetRefills: the assembly budget bounds full
// assemblies per window of the recorder's own appends, and each new
// window starts with a fresh budget, so a long-running recorder keeps
// retaining after its first assemblyBudget interesting completions.
func TestAssemblyBudgetRefills(t *testing.T) {
	rec := New(Config{})
	r := rec.Ring("n1", 0)
	abort := func(tx string) {
		r.Add(Event{Tx: tx, Stage: StagePropose})
		rec.Complete(tx, nil, 0, int64(time.Microsecond), FlagAbort, false, false, false)
	}
	fill := func(n uint64) {
		for ; n > 0; n-- {
			r.Add(Event{Stage: StageRead})
		}
	}

	// Spread out, 1000 aborts stay within every window's budget.
	const n = 1000
	for i := 0; i < n; i++ {
		abort(fmt.Sprintf("t%d", i))
		fill(2 * budgetWindow / assemblyBudget)
	}
	kept := rec.Retained()
	if last := kept[len(kept)-1].Tx; last != fmt.Sprintf("t%d", n-1) || rec.Dropped() != 0 {
		t.Fatalf("after %d spread-out aborts: retained ends at %s, %d dropped; want t%d, 0 dropped", n, last, rec.Dropped(), n-1)
	}

	// A burst inside one window is still bounded by the budget.
	fill(budgetWindow - rec.clk.Load()%budgetWindow)
	for i := 0; i < assemblyBudget+10; i++ {
		abort(fmt.Sprintf("b%d", i))
	}
	if got := rec.Dropped(); got != 10 {
		t.Fatalf("burst of %d aborts in one window dropped %d, want 10", assemblyBudget+10, got)
	}

	// The next window retains again.
	fill(budgetWindow)
	abort("after")
	kept = rec.Retained()
	if last := kept[len(kept)-1].Tx; last != "after" || rec.Dropped() != 10 {
		t.Fatalf("next window: retained ends at %s, %d dropped; want after, 10 dropped", last, rec.Dropped())
	}
}

// TestTrailingEvents checks the watch mechanism: events recorded after
// a trace is retained (visibility, feed publishes for its keys) are
// appended to it, and the watch expires after its append window.
func TestTrailingEvents(t *testing.T) {
	rec := New(Config{SlowThreshold: time.Millisecond})
	r := rec.Ring("n1", 0)
	r.Add(Event{Tx: "a1", Key: "k", Stage: StagePropose})
	rec.Complete("a1", []string{"k"}, 0, int64(100*time.Microsecond), FlagAbort, false, false, false)

	r.Add(Event{Tx: "a1", Key: "k", Stage: StageVisibility}) // by tx
	r.Add(Event{Key: "k", Stage: StageFeedPub})              // tx-less, by key
	r.Add(Event{Key: "other", Stage: StageFeedPub})          // unrelated key
	r.Add(Event{Tx: "zz", Key: "k", Stage: StageVisibility}) // other tx (tx-bearing, no match)

	tr := rec.Retained()[0]
	var stages []string
	for _, ev := range tr.Events {
		stages = append(stages, ev.Stage.String())
	}
	if want := "propose visibility feed-pub"; strings.Join(stages, " ") != want {
		t.Fatalf("trailing capture got %v, want %q", stages, want)
	}

	// Push the append counter past the watch window; the watch must die
	// and later matching events must not be appended.
	for i := 0; i < watchWindow+1; i++ {
		r.Add(Event{Stage: StageRead})
	}
	if n := rec.watchN.Load(); n != 0 {
		t.Fatalf("watch still live after window: %d", n)
	}
	r.Add(Event{Tx: "a1", Stage: StageAck})
	if got := len(rec.Retained()[0].Events); got != 3 {
		t.Fatalf("expired watch still appending: %d events", got)
	}
}

// TestGatewayOwnsCompletion: once a gateway claims the top of the
// stack, coordinator-level completions are ignored so a transaction
// is retained exactly once.
func TestGatewayOwnsCompletion(t *testing.T) {
	rec := New(Config{SlowThreshold: time.Millisecond})
	r := rec.Ring("gw", 0)
	rec.ClaimTop()
	r.Add(Event{Tx: "t1", Stage: StageAdmit})
	rec.Complete("t1", nil, 0, int64(time.Microsecond), FlagAbort, false, false, false) // coordinator level
	if n := len(rec.Retained()); n != 0 {
		t.Fatalf("coordinator completion retained %d traces despite gateway claim", n)
	}
	rec.Complete("t1", nil, 0, int64(time.Microsecond), FlagAbort, false, false, true) // gateway level
	if n := len(rec.Retained()); n != 1 {
		t.Fatalf("gateway completion retained %d traces, want 1", n)
	}
}

// TestNilRecorderSafe: every entry point must be a no-op on nil.
func TestNilRecorderSafe(t *testing.T) {
	var rec *Recorder
	r := rec.Ring("n", 0)
	r.Add(Event{Stage: StageVote})
	if r.Len() != 0 || r.Snapshot() != nil {
		t.Fatal("nil ring must record nothing")
	}
	rec.Complete("t", nil, 0, 1, FlagCommit, false, false, false)
	rec.ObservePhase(PhaseQuorum, -1, time.Millisecond)
	if rec.Phases() != nil || rec.Retained() != nil || rec.Slowest() != nil {
		t.Fatal("nil recorder must report nothing")
	}
}

// TestRenderers sanity-checks Compact and Timeline output shape.
func TestRenderers(t *testing.T) {
	rec := New(Config{SlowThreshold: time.Millisecond})
	r := rec.Ring("us-1", 0)
	r2 := rec.Ring("eu-1", 1)
	r.Add(Event{At: 0, Tx: "t1", Key: "x", Stage: StageAdmit})
	r2.Add(Event{At: int64(300 * time.Microsecond), Tx: "t1", Key: "x", Stage: StageVote, Flags: FlagFast | FlagAccept})
	r.Add(Event{At: int64(900 * time.Microsecond), Tx: "t1", Stage: StageAck, Flags: FlagCommit})
	rec.Complete("t1", []string{"x"}, 0, int64(2*time.Millisecond), FlagCommit, false, false, false)

	tr := rec.Retained()[0]
	c := tr.Compact()
	for _, want := range []string{"tx=t1", "commit", "[slow]", "admit@us-1", "vote@eu-1(dc1,fast-accept)", "ack@us-1"} {
		if !strings.Contains(c, want) {
			t.Fatalf("Compact missing %q:\n%s", want, c)
		}
	}
	tl := tr.Timeline()
	for _, want := range []string{"tx t1: commit in 2ms", "keys [x]", "+300µs", "fast-accept", "dc1"} {
		if !strings.Contains(tl, want) {
			t.Fatalf("Timeline missing %q:\n%s", want, tl)
		}
	}
}

// TestPhaseHistograms checks DC splits and snapshot order.
func TestPhaseHistograms(t *testing.T) {
	rec := New(Config{})
	rec.ObservePhase(PhaseVote, 0, time.Millisecond)
	rec.ObservePhase(PhaseVote, 1, 2*time.Millisecond)
	rec.ObservePhase(PhaseVote, 1, 3*time.Millisecond)
	rec.ObservePhase(PhaseQuorum, -1, 4*time.Millisecond)
	snaps := rec.Phases()
	if len(snaps) != 3 {
		t.Fatalf("Phases() returned %d snapshots, want 3", len(snaps))
	}
	if snaps[0].Key.String() != "quorum" || snaps[1].Key.String() != "vote[dc0]" || snaps[2].Key.String() != "vote[dc1]" {
		t.Fatalf("snapshot order/keys wrong: %v %v %v", snaps[0].Key, snaps[1].Key, snaps[2].Key)
	}
	if snaps[1].Hist.N != 1 || snaps[2].Hist.N != 2 {
		t.Fatalf("vote samples per DC = %d, %d, want 1, 2", snaps[1].Hist.N, snaps[2].Hist.N)
	}
}
