package paxos

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestBallotOrdering(t *testing.T) {
	cases := []struct {
		a, b Ballot
		want int
	}{
		{DefaultFast, DefaultFast, 0},
		{DefaultFast, Classic(0, "x"), -1},        // classic outranks fast at same N
		{Classic(0, "x"), FastBallot(1), -1},      // higher N outranks classic bit
		{Classic(1, "a"), Classic(1, "b"), -1},    // leader id breaks ties
		{Classic(2, "a"), Classic(1, "b"), 1},     // N dominates
		{FastBallot(3), FastBallot(3), 0},         // equal fast
		{Classic(3, "dc1"), Classic(3, "dc1"), 0}, // equal classic
		{FastBallot(2), Classic(2, ""), -1},       // fast < classic even with empty leader
	}
	for i, c := range cases {
		if got := c.a.Cmp(c.b); got != c.want {
			t.Errorf("case %d: Cmp(%v,%v) = %d, want %d", i, c.a, c.b, got, c.want)
		}
		if got := c.b.Cmp(c.a); got != -c.want {
			t.Errorf("case %d: Cmp reversed not antisymmetric", i)
		}
		if (c.a.Cmp(c.b) < 0) != c.a.Less(c.b) {
			t.Errorf("case %d: Less disagrees with Cmp", i)
		}
	}
}

func TestBallotNext(t *testing.T) {
	// Next classic from the default fast ballot outranks it.
	n := DefaultFast.Next("ldr")
	if !DefaultFast.Less(n) {
		t.Fatalf("Next(%v) = %v does not outrank", DefaultFast, n)
	}
	if n.Fast {
		t.Fatal("Next should be classic")
	}
	// Next from classic bumps N.
	n2 := n.Next("ldr")
	if !n.Less(n2) || n2.N != n.N+1 {
		t.Fatalf("Next from classic = %v", n2)
	}
	// NextFast outranks the classic it follows.
	f := n.NextFast()
	if !n.Less(f) || !f.Fast {
		t.Fatalf("NextFast(%v) = %v", n, f)
	}
}

func TestBallotOrderingTotal(t *testing.T) {
	f := func(n1, n2 uint64, f1, f2 bool, l1, l2 string) bool {
		a := Ballot{N: n1 % 8, Fast: f1, Leader: l1}
		b := Ballot{N: n2 % 8, Fast: f2, Leader: l2}
		// Antisymmetry and totality.
		if a.Cmp(b) != -b.Cmp(a) {
			return false
		}
		if a.Cmp(b) == 0 && (a != b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBallotSortTransitive(t *testing.T) {
	bs := []Ballot{
		Classic(2, "b"), DefaultFast, FastBallot(2), Classic(0, "a"),
		Classic(2, "a"), FastBallot(1), Classic(1, "z"),
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].Less(bs[j]) })
	for i := 1; i < len(bs); i++ {
		if bs[i].Less(bs[i-1]) {
			t.Fatalf("sort order violated at %d: %v > %v", i, bs[i-1], bs[i])
		}
	}
	if bs[0] != DefaultFast {
		t.Fatalf("DefaultFast should sort first, got %v", bs[0])
	}
}

func TestQuorumSizes(t *testing.T) {
	q := NewQuorum(5)
	if q.Classic != 3 || q.Fast != 4 {
		t.Fatalf("NewQuorum(5) = %+v, want classic 3 fast 4", q)
	}
	for n := 3; n <= 12; n++ {
		if q := NewQuorum(n); !valid(q) {
			t.Errorf("NewQuorum(%d) = %+v breaks a quorum intersection requirement", n, q)
		}
	}
}

// valid is the oracle for NewQuorum: the Fast Paxos quorum
// requirements — any two classic quorums intersect, and any two fast
// quorums intersect with every classic quorum.
func valid(q Quorum) bool {
	if q.Classic < 1 || q.Fast < q.Classic || q.Fast > q.N {
		return false
	}
	return 2*q.Classic > q.N && 2*q.Fast+q.Classic > 2*q.N
}

// The oracle itself refuses each way a quorum pair can fail to meet.
func TestQuorumInvalid(t *testing.T) {
	bad := []Quorum{
		{N: 5, Classic: 2, Fast: 4}, // two classics may not intersect
		{N: 5, Classic: 3, Fast: 3}, // two fasts + classic may not intersect
		{N: 5, Classic: 3, Fast: 6}, // fast larger than N
		{N: 5, Classic: 0, Fast: 4},
	}
	for i, q := range bad {
		if valid(q) {
			t.Errorf("case %d: %+v should be invalid", i, q)
		}
	}
}

func TestPossiblyChosen(t *testing.T) {
	q := NewQuorum(5) // fast = 4
	cases := []struct {
		votes, responded int
		want             bool
	}{
		{4, 4, true},  // already a fast quorum
		{3, 4, true},  // the 5th might agree
		{2, 4, false}, // at most 3 total
		{3, 3, true},  // two silent nodes might both agree
		{2, 3, true},
		{1, 3, false},
		{0, 5, false},
		{2, 5, false}, // everyone responded, only 2 agree
	}
	for i, c := range cases {
		if got := q.PossiblyChosen(c.votes, c.responded); got != c.want {
			t.Errorf("case %d: PossiblyChosen(%d,%d) = %v, want %v", i, c.votes, c.responded, got, c.want)
		}
	}
}

// At most one decision of a binary vote can be possibly-chosen once a
// classic quorum has responded — the property collision recovery
// relies on.
func TestPossiblyChosenExclusive(t *testing.T) {
	for n := 3; n <= 11; n++ {
		q := NewQuorum(n)
		for responded := q.Classic; responded <= n; responded++ {
			for accepts := 0; accepts <= responded; accepts++ {
				rejects := responded - accepts
				a := q.PossiblyChosen(accepts, responded)
				r := q.PossiblyChosen(rejects, responded)
				if a && r {
					t.Fatalf("n=%d responded=%d accepts=%d: both decisions possibly chosen", n, responded, accepts)
				}
			}
		}
	}
}

func TestLearnedThresholds(t *testing.T) {
	q := NewQuorum(5)
	if q.FastLearned(3) || !q.FastLearned(4) {
		t.Fatal("FastLearned thresholds wrong")
	}
}

func TestBallotString(t *testing.T) {
	if DefaultFast.String() != "fast:0" {
		t.Fatalf("DefaultFast.String() = %q", DefaultFast.String())
	}
	if Classic(3, "n1").String() != "classic:3@n1" {
		t.Fatalf("Classic String = %q", Classic(3, "n1").String())
	}
}
