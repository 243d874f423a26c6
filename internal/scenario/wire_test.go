package scenario

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mdcc/internal/transport"
)

// TestProtocolTrafficSurvivesWire: the simulator never serializes, so
// nothing else shows that what the protocol actually sends — Phase1a/1b
// with real votes and lineage, recovery queries and answers, sync
// replies, batches of all of them — is something the TCP wire can
// carry. Every envelope the network delivers in the scenarios that
// exercise collisions, leader takeover, long partitions and the mixed
// nemesis must encode through AppendEnvelope and decode to a value
// reflect.DeepEqual to what was sent. A type without a wire codec, or
// a producer that breaks an encode-side convention (a populated field
// behind a false guard, an empty-but-non-nil slice), fails here.
func TestProtocolTrafficSurvivesWire(t *testing.T) {
	all := make(map[string]int)
	for _, name := range []string{"collision-storm", "master-failover", "long-outage", "chaos-mix"} {
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
		"MsgEnableFast", "MsgRecoverOpt", "MsgOptDecided", "MsgSyncReq", "MsgSyncReply"} {
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
