// Package paxos provides the consensus primitives under MDCC's commit
// protocol: ballot numbers with the fast/classic ranking the paper
// requires (§3.3.1: "classic ballot numbers are always higher ranked
// than fast ballot numbers"), quorum arithmetic, and the Fast Paxos
// value-selection rule used during collision recovery (which option
// values may already have been chosen by a fast quorum and therefore
// must be carried into the new classic ballot).
package paxos

import "fmt"

// Ballot identifies a voting round for one record's current instance.
// Ordering is lexicographic over (N, classic-over-fast, Leader):
// within the same number a classic ballot outranks a fast one, and a
// leader identity string breaks symmetry between competing masters
// (the paper concatenates the requester's IP address for uniqueness).
type Ballot struct {
	N      uint64
	Fast   bool
	Leader string // proposer identity; empty for the implicit default fast ballot
}

// DefaultFast is the implicit initial ballot every record starts in:
// fast, number 0, no owner — "accept the next options from any
// proposer" (§3.3.1).
var DefaultFast = Ballot{N: 0, Fast: true}

// Classic builds a classic ballot owned by a leader.
func Classic(n uint64, leader string) Ballot {
	return Ballot{N: n, Fast: false, Leader: leader}
}

// FastBallot builds a fast ballot (used when a leader re-opens fast
// mode after γ classic instances).
func FastBallot(n uint64) Ballot {
	return Ballot{N: n, Fast: true}
}

// Cmp returns -1, 0, or +1 comparing b against o.
func (b Ballot) Cmp(o Ballot) int {
	if b.N != o.N {
		if b.N < o.N {
			return -1
		}
		return 1
	}
	// Classic (Fast=false) ranks above fast at the same number.
	if b.Fast != o.Fast {
		if b.Fast {
			return -1
		}
		return 1
	}
	if b.Leader != o.Leader {
		if b.Leader < o.Leader {
			return -1
		}
		return 1
	}
	return 0
}

// Less reports b < o.
func (b Ballot) Less(o Ballot) bool { return b.Cmp(o) < 0 }

// Next returns the smallest classic ballot owned by leader that
// outranks b.
func (b Ballot) Next(leader string) Ballot {
	if b.Fast {
		// classic(N) already outranks fast(N).
		return Classic(b.N, leader)
	}
	return Classic(b.N+1, leader)
}

// NextFast returns a fast ballot outranking b (fast N+1 outranks
// classic N).
func (b Ballot) NextFast() Ballot { return FastBallot(b.N + 1) }

// String renders "fast:3" or "classic:3@dc1/store0".
func (b Ballot) String() string {
	if b.Fast {
		return fmt.Sprintf("fast:%d", b.N)
	}
	return fmt.Sprintf("classic:%d@%s", b.N, b.Leader)
}

// Quorum holds the sizes for one replica group.
type Quorum struct {
	N       int // replicas
	Classic int // majority
	Fast    int // fast quorum
}

// NewQuorum computes classic and fast quorum sizes for n replicas:
// classic = ⌊n/2⌋+1, fast = ⌈3n/4⌉. For n=5 this is the paper's 3/4.
func NewQuorum(n int) Quorum {
	f := (3*n + 3) / 4
	if f > n {
		f = n
	}
	return Quorum{N: n, Classic: n/2 + 1, Fast: f}
}

// PossiblyChosen reports whether a value with `votes` supporting
// acceptors among `responded` distinct replies could have been chosen
// by a fast quorum: the non-responding N-responded acceptors might
// all have voted for it too.
func (q Quorum) PossiblyChosen(votes, responded int) bool {
	return votes+(q.N-responded) >= q.Fast
}

// FastLearned reports whether `votes` identical votes suffice to
// learn in a fast ballot.
func (q Quorum) FastLearned(votes int) bool { return votes >= q.Fast }
