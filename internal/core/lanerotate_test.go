package core

import (
	"fmt"
	"strings"
	"testing"

	"mdcc/internal/record"
)

// TestLaneRotationBoundsKeySeqs pins the lineage memory bound and its
// eviction rule: per-(lane, key) counter words are never evicted
// individually (a seq gap or reuse would corrupt summary identities);
// instead, once the tree holds keySeqWords words the whole lane retires
// — the era bumps, changing the TxID prefix, and a fresh tree mints
// from 1 again. The coordinator's lineage state is therefore O(keys
// live in the current lane) no matter how many keys it ever wrote. The
// tree is pre-filled with words for keys never proposed, so a handful of
// commits reach the bound.
func TestLaneRotationBoundsKeySeqs(t *testing.T) {
	w := newWorld(t, cfgNoSweep(ModeMDCC), 1, 1, 11)
	c := w.coords[0]
	fill := func(words int) {
		for i := 0; i < words; i++ {
			c.keySeqs.Put(fmt.Sprintf("filler/e%d/%d", c.era, i), 1)
		}
	}
	insert := func(key record.Key) CommitResult {
		t.Helper()
		res := w.commit(0, record.Insert(key, record.Value{Attrs: map[string]int64{"v": 1}}))
		if !res.Committed {
			t.Fatalf("insert %s aborted", key)
		}
		return res
	}

	// One word below the bound, a write of a new key fills the lane; no
	// rotation yet (the rule is "retire when full at the next mint",
	// never mid-lane).
	fill(keySeqWords - 1)
	insert("item/l0")
	if c.era != 0 || c.keySeqs.Len() != keySeqWords {
		t.Fatalf("full lane: era=%d words=%d, want era 0 with %d words", c.era, c.keySeqs.Len(), keySeqWords)
	}

	// The next write triggers rotation: era 1, fresh tree.
	res := insert("item/l1")
	if c.era != 1 {
		t.Fatalf("era = %d after exceeding keySeqWords, want 1", c.era)
	}
	if c.keySeqs.Len() != 1 {
		t.Fatalf("rotated lane holds %d words, want 1 (only the new write)", c.keySeqs.Len())
	}
	if !strings.Contains(string(res.Tx), "~e1#") {
		t.Fatalf("rotated-lane TxID %q does not carry the era", res.Tx)
	}

	// Re-writing a key from the retired lane must not alias its old
	// identities: the new option is (new lane, seq 1), not (old lane,
	// seq 2).
	res = w.commit(0, record.Physical("item/l0", 1, record.Value{Attrs: map[string]int64{"v": 2}}))
	if !res.Committed {
		t.Fatal("re-write of retired-lane key aborted")
	}
	if seq, _ := c.keySeqs.Get("item/l0"); seq != 1 {
		t.Fatalf("retired-lane key re-minted at seq %d, want 1 in the fresh lane", seq)
	}
	w.settle()

	// Both lanes' applies settled: every replica executed both options
	// on item/l0 (v2 at version 2) and their exact lineage summaries
	// agree — rotation is invisible to convergence.
	var want string
	for i, e := range w.storedValues("item/l0") {
		if e.Version != 2 || e.Value.Decode().Attr("v") != 2 {
			t.Fatalf("replica %d: %v v%d, want v=2 version 2", i, e.Value, e.Version)
		}
	}
	for _, n := range w.nodes {
		fp := n.LineageFingerprint("item/l0")
		if want == "" {
			want = fp
		} else if fp != want {
			t.Fatalf("lineage diverged across replicas:\n%s\nvs\n%s", want, fp)
		}
	}
	if !strings.Contains(want, "~e1") {
		t.Fatalf("settled summary does not mention the rotated lane: %s", want)
	}

	// A lane full again retires again.
	fill(keySeqWords - c.keySeqs.Len())
	insert("item/l2")
	if c.era != 2 || c.keySeqs.Len() != 1 {
		t.Fatalf("second rotation: era=%d words=%d, want era 2 with 1 word", c.era, c.keySeqs.Len())
	}
}
