package scenario

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mdcc/internal/core"
	"mdcc/internal/transport"
)

// wireScenarios are the scenarios whose delivered traffic the tests
// below inspect.
var wireScenarios = []string{"collision-storm", "master-failover", "long-outage", "chaos-mix", "read-storm"}

// TestProtocolTrafficSurvivesWire: the simulator never serializes, so
// nothing else shows that what the protocol actually sends — Phase1a/1b
// with real votes and lineage, recovery queries and answers, sync
// replies, batches of all of them — is something the TCP wire can
// carry. Every envelope the network delivers in the scenarios that
// exercise collisions, leader takeover, long partitions, the mixed
// nemesis and a gateway's read storm (visibility subscriptions and the
// feed that answers them) must encode through AppendEnvelope and decode
// to a value reflect.DeepEqual to what was sent. A type without a wire
// codec, or a producer that breaks an encode-side convention (a
// populated field behind a false guard, an empty-but-non-nil slice),
// fails here.
func TestProtocolTrafficSurvivesWire(t *testing.T) {
	all := make(map[string]int)
	for _, name := range wireScenarios {
		name := name
		t.Run(name, func(t *testing.T) {
			s, ok := Find(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			seen := make(map[string]int)
			var bad []string
			var buf []byte
			opts := smokeOpts()
			opts.onDeliver = func(e transport.Envelope) {
				countTypes(seen, e.Msg)
				var err error
				buf, err = transport.AppendEnvelope(buf[:0], e)
				if err == nil {
					var out transport.Envelope
					if out, err = transport.DecodeFrame(buf); err == nil && !reflect.DeepEqual(out, e) {
						err = fmt.Errorf("round trip changed it:\n sent %#v\n  got %#v", e, out)
					}
				}
				if err != nil && len(bad) < 5 {
					bad = append(bad, fmt.Sprintf("%T: %v", e.Msg, err))
				}
			}
			res, err := s.Run(opts)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, b := range bad {
				t.Error(b)
			}
			if !res.Passed() {
				t.Errorf("scenario failed: %d violations, %d unresolved", len(res.Violations), res.Unresolved)
			}
			var names []string
			for k, n := range seen {
				all[k] += n
				names = append(names, fmt.Sprintf("%s×%d", strings.TrimPrefix(k, "core."), n))
			}
			sort.Strings(names)
			t.Logf("delivered types: %s", strings.Join(names, " "))
		})
	}
	// The check is only worth something if the cold paths really ran.
	for _, typ := range []string{"MsgProposeLeader", "MsgStartRecovery", "MsgPhase1a", "MsgPhase1b",
		"MsgEnableFast", "MsgRecoverOpt", "MsgOptDecided", "MsgSyncReq", "MsgSyncReply",
		"MsgVisibilitySub", "MsgVisibilityFeed"} {
		if all["core."+typ] == 0 {
			t.Errorf("no core.%s was ever delivered: the scenarios no longer exercise it", typ)
		}
	}
}

// countTypes tallies a message's Go type, looking inside batches.
func countTypes(seen map[string]int, msg transport.Message) {
	if b, ok := msg.(transport.Batch); ok {
		for _, it := range b.Items {
			countTypes(seen, it.Msg)
		}
		return
	}
	seen[fmt.Sprintf("%T", msg)]++
}

// TestProductOptionsCarryIdentity: internal/core answers "has this
// option settled?" from the record's lineage summary alone, which names
// an option by its coordinator lane and KeySeq. That rests on two
// properties of what the protocol sends, checked here over every
// delivered message of the scenarios above, batches included: every
// option carries a minted identity (KeySeq at least 1), in proposals,
// visibility, Phase2a cstructs, Phase1b votes and every recovery
// message (a recovery query's own KeySeq too); and one (Tx, Key) is
// only ever seen with one KeySeq.
func TestProductOptionsCarryIdentity(t *testing.T) {
	for _, name := range wireScenarios {
		name := name
		t.Run(name, func(t *testing.T) {
			s, ok := Find(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			seqs := make(map[core.OptionID]uint64)
			seen := make(map[string]int)
			var bad []string
			note := func(where string, id core.OptionID, keySeq uint64) {
				seen[where]++
				prev, known := seqs[id]
				switch {
				case keySeq < 1:
					bad = append(bad, fmt.Sprintf("%s: %s on %s carries KeySeq 0", where, id.Tx, id.Key))
				case known && prev != keySeq:
					bad = append(bad, fmt.Sprintf("%s: %s on %s carries KeySeq %d, earlier %d", where, id.Tx, id.Key, keySeq, prev))
				default:
					seqs[id] = keySeq
				}
			}
			opt := func(where string, o core.Option) { note(where, o.ID(), o.KeySeq) }
			var visit func(msg transport.Message)
			visit = func(msg transport.Message) {
				switch m := msg.(type) {
				case transport.Batch:
					for _, it := range m.Items {
						visit(it.Msg)
					}
				case core.MsgProposeBatch:
					for _, o := range m.Opts {
						opt("propose", o)
					}
				case core.MsgProposeLeader:
					opt("propose-leader", m.Opt)
				case core.MsgVisibility:
					opt("visibility", m.Opt)
				case core.MsgVisibilityBatch:
					for _, v := range m.Items {
						opt("visibility", v.Opt)
					}
				case core.MsgPhase2a:
					for _, v := range m.CStruct {
						opt("phase2a", v.Opt)
					}
				case core.MsgPhase1b:
					for _, v := range m.Votes {
						opt("phase1b", v.Opt)
					}
				case core.MsgStartRecovery:
					if m.HasOpt {
						opt("start-recovery", m.Opt)
					}
				case core.MsgRecoverOpt:
					note("recover-opt", core.OptionID{Tx: m.Tx, Key: m.Key}, m.KeySeq)
					if m.HasOpt {
						opt("recover-opt", m.Opt)
					}
				case core.MsgOptDecided:
					if m.HasOpt {
						opt("opt-decided", m.Opt)
					}
				}
			}
			opts := smokeOpts()
			opts.onDeliver = func(e transport.Envelope) { visit(e.Msg) }
			res, err := s.Run(opts)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for i, b := range bad {
				if i == 5 {
					t.Errorf("... and %d more", len(bad)-i)
					break
				}
				t.Error(b)
			}
			if !res.Passed() {
				t.Errorf("scenario failed: %d violations, %d unresolved", len(res.Violations), res.Unresolved)
			}
			t.Logf("options checked: %v", seen)
		})
	}
}
