package gateway

import (
	"testing"
	"time"

	"mdcc/internal/core"
	"mdcc/internal/paxos"
	"mdcc/internal/record"
	"mdcc/internal/transport"
)

// fuzzNet is the minimal transport.Network the headroom-accounting
// methods touch (only Now); the fuzz drives the accounting directly,
// no messages flow.
type fuzzNet struct{}

func (fuzzNet) Register(transport.NodeID, transport.Handler)                  {}
func (fuzzNet) Send(transport.NodeID, transport.NodeID, transport.Message)    {}
func (fuzzNet) After(transport.NodeID, time.Duration, func()) transport.Timer { return nil }
func (fuzzNet) Now() time.Time                                                { return time.Unix(0, 0) }

// FuzzDemarcationParity drives the gateway's headroom accounting and
// an acceptor-side oracle (internal/core's DeltaSafe — the exact
// predicate acceptors evaluate) through randomized bases, bounds,
// contender counts (so every headroom-share divisor, 1 to 5) and
// delta/resolve/snapshot sequences, and asserts the
// admission contract both ways:
//
//  1. Knowledge parity (always): whenever the gateway admits a delta
//     into a merge window, the acceptor's own predicate evaluated on
//     the gateway's held state (snapshot + its outstanding deltas)
//     must also accept it — the gateway is never *looser* than the
//     acceptor on what it knows.
//  2. Single-writer exactness: with no other gateway feeding the key,
//     the gateway's knowledge is conservative w.r.t. the live
//     acceptor, so an admitted delta must also pass the acceptor's
//     live state.
//
// Run under -race in CI (the seed corpus executes on every `go test
// -race ./...`); the CI fuzz gate additionally explores new inputs.
func FuzzDemarcationParity(f *testing.F) {
	f.Add(uint8(60), false, uint8(0), uint8(4), []byte{0x00, 0x85, 0x02, 0x81, 0x08, 0x00, 0x04, 0x83})
	f.Add(uint8(3), false, uint8(0), uint8(0), []byte{0x00, 0x81, 0x00, 0x81, 0x00, 0x81, 0x02, 0x00})
	f.Add(uint8(10), true, uint8(20), uint8(2), []byte{0x00, 0x05, 0x03, 0x07, 0x08, 0x00, 0x00, 0x84, 0x02, 0x01})
	f.Add(uint8(100), true, uint8(7), uint8(1), []byte{0x03, 0x86, 0x08, 0x00, 0x00, 0x82, 0x02, 0x00, 0x00, 0x81})
	f.Fuzz(func(t *testing.T, base0 uint8, maxOn bool, maxSlack uint8, contIn uint8, ops []byte) {
		var con record.Constraint
		if maxOn {
			con = record.Bound("u", 0, int64(base0)+int64(maxSlack))
		} else {
			con = record.MinBound("u", 0)
		}
		q := paxos.NewQuorum(5)
		g := &Gateway{
			cfg:  core.Config{Constraints: []record.Constraint{con}},
			q:    q,
			net:  fuzzNet{},
			keys: make(map[record.Key]*keyState),
		}
		key := record.Key("k")
		contenders := int(contIn%5) + 1

		// Ground-truth acceptor state.
		type pendEntry struct {
			d      int64
			own    bool
			tracks []outTrack
		}
		trueBase := int64(base0)
		ver := record.Version(1)
		var pend []pendEntry
		othersUsed := false
		pendSums := func() (down, up int64) {
			for _, e := range pend {
				if e.d < 0 {
					down += e.d
				} else {
					up += e.d
				}
			}
			return down, up
		}

		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			d := int64(arg&0x7f)%8 + 1
			if arg&0x80 != 0 {
				d = -d
			}
			switch op % 5 {
			case 0, 1: // this gateway proposes d
				up := record.Commutative(key, map[string]int64{"u": d})
				es := g.ks(key).escrow()
				if g.fitsLocked(es, up) {
					a := es.acc["u"]
					kDown := a.pendDown + es.outDown["u"]
					kUp := a.pendUp + es.outUp["u"]
					if !core.DeltaSafe(a.base, kDown, kUp, d, con, q, true) {
						t.Fatalf("gateway admitted delta %+d but the acceptor predicate rejects it on the gateway's own knowledge (base %d, pend %d/%d, con %s, share %d)",
							d, a.base, kDown, kUp, con, g.shareLocked(es))
					}
					if !othersUsed {
						td, tu := pendSums()
						if !core.DeltaSafe(trueBase, td, tu, d, con, q, true) {
							t.Fatalf("single-writer: gateway admitted delta %+d the live acceptor rejects (true base %d, pend %d/%d, con %s)",
								d, trueBase, td, tu, con)
						}
					}
				}
				// Whether merged or bypassed, the delta is proposed and
				// the acceptor arbitrates; the gateway accounts it
				// outstanding until the outcome resolves.
				td, tu := pendSums()
				tracks := g.trackOutLocked([]record.Update{up})
				if core.DeltaSafe(trueBase, td, tu, d, con, q, true) {
					pend = append(pend, pendEntry{d: d, own: true, tracks: tracks})
				} else {
					// Learned rejected immediately.
					g.resolveTracks(tracks, false)
				}
			case 2: // oldest pending option resolves (commit/abort by bit)
				if len(pend) == 0 {
					continue
				}
				e := pend[0]
				pend = pend[1:]
				commit := arg&1 == 0
				if commit {
					trueBase += e.d
					ver++
				}
				if e.own {
					g.resolveTracks(e.tracks, commit)
				}
			case 3: // another gateway's delta reaches the acceptor
				td, tu := pendSums()
				if core.DeltaSafe(trueBase, td, tu, d, con, q, true) {
					pend = append(pend, pendEntry{d: d, own: false})
					othersUsed = true
				}
			case 4: // a piggybacked snapshot of the current state lands
				td, tu := pendSums()
				g.observeEscrow("", key, core.EscrowSnap{
					Valid: true, Version: ver,
					Attrs:      []core.AttrEscrow{{Attr: "u", Base: trueBase, PendDown: td, PendUp: tu}},
					Contenders: contenders,
				})
			}
			// Escrow safety ground truth: the acceptor's own admissions
			// must keep the constraint safe under every permutation.
			td, tu := pendSums()
			if trueBase+td < 0 {
				t.Fatalf("oracle broke escrow: base %d, pendDown %d", trueBase, td)
			}
			if con.Max != nil && trueBase+tu > *con.Max {
				t.Fatalf("oracle broke upper escrow: base %d, pendUp %d, max %d", trueBase, tu, *con.Max)
			}
		}
	})
}
