package core

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mdcc/internal/paxos"
	"mdcc/internal/record"
	"mdcc/internal/transport"
)

var updateGolden = flag.Bool("update", false, "rewrite golden wire vectors")

// Canonical samples, one per message. "Canonical" means the
// encode-side conventions hold (nil for empty maps/slices, guarded
// fields zero when their guard is false) so gob — kept in this file
// as the decode oracle only — and the binary codec agree
// value-for-value.

// gob needs the concrete types behind transport.Message registered;
// the product no longer does that, so the oracle registers them here.
func init() {
	for _, m := range wireSamples() {
		gob.Register(m)
	}
	gob.Register(transport.Batch{})
}

func sampleValue() record.Encoded {
	return record.Encode(record.Value{
		Attrs: map[string]int64{"bal": -3, "qty": 41},
		Blob:  []byte{0xde, 0xad},
	})
}

func sampleOption() Option {
	return Option{
		Tx:    "tx-7",
		Coord: "dc1/app0",
		Update: record.Update{
			Kind:   record.KindCommutative,
			Key:    "item#9",
			Deltas: map[string]int64{"stock": -1},
			Merged: 2,
		},
		WriteSet:  []record.Key{"item#9", "cart#3"},
		KeySeq:    19,
		WriteSeqs: []uint64{19, 4},
	}
}

func samplePhysicalOption() Option {
	return Option{
		Tx:    "tx-8",
		Coord: "dc2/app1",
		Update: record.Update{
			Kind:        record.KindPhysical,
			Key:         "cust#2",
			ReadVersion: 11,
			NewValue:    sampleValue(),
		},
		WriteSet: []record.Key{"cust#2"},
		KeySeq:   12,
	}
}

// sampleProposeBatch holds two options of one transaction, sharing its
// write set as a coordinator's do, then another transaction's option.
func sampleProposeBatch() MsgProposeBatch {
	a := sampleOption()
	b := a
	b.Update = record.Update{Kind: record.KindCommutative, Key: "cart#3", Deltas: map[string]int64{"items": 1}}
	b.KeySeq = 4
	return MsgProposeBatch{Opts: []Option{a, b, samplePhysicalOption()}}
}

func sampleEscrow() EscrowSnap {
	return EscrowSnap{
		Valid:   true,
		Version: 30,
		Attrs: []AttrEscrow{
			{Attr: "stock", Base: 90, PendDown: -5, PendUp: 2},
		},
		Contenders: 3,
	}
}

func sampleBallot() paxos.Ballot {
	return paxos.Ballot{N: 6, Fast: true, Leader: "dc1/store0"}
}

func sampleWireVote() MsgVote {
	return MsgVote{
		OptID:     OptionID{Tx: "tx-7", Key: "item#9"},
		Ballot:    sampleBallot(),
		Decision:  DecAccept,
		Forwarded: true,
		Leader:    "dc1/store0",
		Escrow:    sampleEscrow(),
	}
}

func sampleLineage() LineageSummary {
	return LineageSummary{
		Lanes: []LaneLineage{
			{Lane: "dc1/app0", Done: []SeqRange{{Lo: 1, Hi: 17}}, Rejected: []SeqRange{{Lo: 9, Hi: 9}}},
			{Lane: "dc2/app1", Done: []SeqRange{{Lo: 1, Hi: 4}}},
		},
		Deltas: true,
	}
}

// wireSamples lists every hand-serialized core message with a
// representative value; golden vectors, round-trip and parity tests
// all iterate it.
func wireSamples() map[string]transport.Message {
	return map[string]transport.Message{
		"MsgRead":         MsgRead{ReqID: 99, Key: "cust#2"},
		"MsgReadReply":    MsgReadReply{ReqID: 99, Key: "cust#2", Value: sampleValue(), Version: 11, Exists: true, Escrow: sampleEscrow()},
		"MsgProposeFast":  MsgProposeFast{Opt: sampleOption()},
		"MsgProposeBatch": sampleProposeBatch(),
		"MsgVote":         sampleWireVote(),
		"MsgVoteBatch":    MsgVoteBatch{Votes: []MsgVote{sampleWireVote(), {OptID: OptionID{Tx: "tx-8", Key: "cust#2"}, Ballot: paxos.Ballot{N: 7, Leader: "dc2/store1"}, Decision: DecReject, Reason: ReasonMixedKinds, WrongGroup: true}}},
		"MsgLearned":      MsgLearned{OptID: OptionID{Tx: "tx-7", Key: "item#9"}, Decision: DecAccept, Escrow: sampleEscrow()},
		"MsgVisibility":   MsgVisibility{Opt: sampleOption(), Commit: true},
		"MsgVisibilityBatch": MsgVisibilityBatch{Items: []MsgVisibility{
			{Opt: sampleOption(), Commit: true}, {Opt: samplePhysicalOption()},
		}},
		"MsgPhase2a": MsgPhase2a{
			Key:    "item#9",
			Ballot: paxos.Ballot{N: 8, Leader: "dc1/store0"},
			Seq:    3,
			CStruct: []VotedOption{
				{Opt: sampleOption(), Decision: DecAccept},
				{Opt: samplePhysicalOption(), Decision: DecReject, Reason: ReasonMixedKinds},
			},
			HasBase:     true,
			BaseVersion: 17,
			BaseValue:   sampleValue(),
			BaseExists:  true,
			BaseLineage: sampleLineage(),
		},
		"MsgPhase2b_ok":     MsgPhase2b{Key: "item#9", Ballot: paxos.Ballot{N: 8, Leader: "dc1/store0"}, Seq: 3, OK: true},
		"MsgPhase2b_nacked": MsgPhase2b{Key: "item#9", Ballot: paxos.Ballot{N: 8, Leader: "dc1/store0"}, Seq: 3, Promised: paxos.Ballot{N: 12, Leader: "dc3/store2"}},
		"MsgVisibilitySub":  MsgVisibilitySub{Epoch: 2, CatchUp: []record.Key{"item#9", "cust#2"}},
		"MsgVisibilityFeed": MsgVisibilityFeed{Epoch: 2, Seq: 44, Boot: 1, Items: []FeedItem{
			{Key: "item#9", Value: sampleValue(), Version: 20, Exists: true, Escrow: sampleEscrow()},
			{Key: "gone#1", Version: 5},
		}},
		"MsgProposeLeader":       MsgProposeLeader{Opt: samplePhysicalOption()},
		"MsgStartRecovery":       MsgStartRecovery{Key: "item#9", Opt: sampleOption(), HasOpt: true},
		"MsgStartRecovery_noopt": MsgStartRecovery{Key: "item#9"},
		"MsgPhase1a":             MsgPhase1a{Key: "item#9", Ballot: paxos.Ballot{N: 8, Leader: "dc1/store0"}},
		"MsgPhase1b": MsgPhase1b{
			Key:    "item#9",
			Ballot: paxos.Ballot{N: 8, Leader: "dc1/store0"},
			Bal:    sampleBallot(),
			Votes: []VotedOption{
				{Opt: sampleOption(), Decision: DecAccept},
				{Opt: samplePhysicalOption(), Decision: DecReject, Reason: ReasonMixedKinds},
			},
			Version: 17,
			Value:   sampleValue(),
			Exists:  true,
			Lineage: sampleLineage(),
		},
		"MsgEnableFast": MsgEnableFast{Key: "item#9", Ballot: sampleBallot()},
		"MsgRecoverOpt": MsgRecoverOpt{ReqID: 5, Tx: "tx-7", Key: "cart#3", KeySeq: 4, Opt: sampleOption(), HasOpt: true},
		"MsgOptDecided": MsgOptDecided{ReqID: 5, Tx: "tx-7", Key: "cart#3", Decision: DecAccept, Opt: sampleOption(), HasOpt: true},
		"MsgSyncReq":    MsgSyncReq{ReqID: 31, From: "cust#2", Limit: 128},
		"MsgSyncReply": MsgSyncReply{ReqID: 31, Next: "item#9", Entries: []SyncEntry{
			{Key: "cust#2", Value: sampleValue(), Version: 11, Lineage: sampleLineage()},
			{Key: "gone#1", Value: record.Encode(record.Value{Tombstone: true}), Version: 5},
		}},
	}
}

// TestWireGolden pins every message's encoded bytes to a committed
// vector, so an accidental field reorder or encoding change — which
// would break mixed-version deployments without bumping
// transport.WireVersion — fails loudly. Regenerate deliberately with
// `go test -run Golden -update ./internal/core/`.
func TestWireGolden(t *testing.T) {
	for name, msg := range wireSamples() {
		checkGolden(t, "wire_golden", name, msg.(transport.WireMessage).AppendWire(nil))
	}
}

// checkGolden compares raw with testdata/<dir>/<name>.hex, or rewrites
// the file under -update.
func checkGolden(t *testing.T, dir, name string, raw []byte) {
	t.Helper()
	got := hex.EncodeToString(raw)
	path := filepath.Join("testdata", dir, name+".hex")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run with -update to regenerate)", name, err)
	}
	if got != string(bytes.TrimSpace(want)) {
		t.Errorf("%s: encoding changed\n got %s\nwant %s\nformat changes require a WireVersion (wire) or format-byte (disk) bump and -update", name, got, bytes.TrimSpace(want))
	}
}

// binaryRoundTrip encodes msg in an envelope with the binary codec
// and decodes it back.
func binaryRoundTrip(t *testing.T, msg transport.Message) transport.Message {
	t.Helper()
	in := transport.Envelope{From: "a", To: "b", TraceClk: 5, Msg: msg}
	b, err := transport.AppendEnvelope(nil, in)
	if err != nil {
		t.Fatalf("encode %T: %v", msg, err)
	}
	out, err := transport.DecodeEnvelope(transport.NewWireReader(b))
	if err != nil {
		t.Fatalf("decode %T: %v", msg, err)
	}
	if out.From != in.From || out.To != in.To || out.TraceClk != in.TraceClk {
		t.Fatalf("envelope header mangled: %+v", out)
	}
	return out.Msg
}

// gobRoundTrip pushes the same envelope through gob, the legacy codec.
func gobRoundTrip(t *testing.T, msg transport.Message) transport.Message {
	t.Helper()
	var buf bytes.Buffer
	in := transport.Envelope{From: "a", To: "b", Msg: msg}
	if err := gob.NewEncoder(&buf).Encode(&in); err != nil {
		t.Fatalf("gob encode %T: %v", msg, err)
	}
	var out transport.Envelope
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode %T: %v", msg, err)
	}
	return out.Msg
}

// TestWireRoundTripParity is the deterministic arm of the parity
// check: binary decode(encode(m)) == m, and == what gob produces for
// the same message.
func TestWireRoundTripParity(t *testing.T) {
	for name, msg := range wireSamples() {
		bin := binaryRoundTrip(t, msg)
		if !reflect.DeepEqual(bin, msg) {
			t.Errorf("%s: binary round trip mismatch\n got %#v\nwant %#v", name, bin, msg)
		}
		gb := gobRoundTrip(t, msg)
		if !reflect.DeepEqual(bin, gb) {
			t.Errorf("%s: binary and gob decode disagree\n bin %#v\n gob %#v", name, bin, gb)
		}
	}
}

// oneTxnBatch is the MsgProposeBatch a coordinator sends one replica
// for an n-key insert transaction shaped like the benchmark's preload:
// every option shares the transaction's one WriteSet and WriteSeqs.
func oneTxnBatch(tx TxID, n int) MsgProposeBatch {
	ws := make([]record.Key, n)
	seqs := make([]uint64, n)
	for i := range ws {
		ws[i] = record.Key(fmt.Sprintf("k/%06d", i))
		seqs[i] = 1
	}
	m := MsgProposeBatch{Opts: make([]Option, n)}
	for i := range m.Opts {
		m.Opts[i] = Option{
			Tx: tx, Coord: "gw/us-west/c0",
			Update:   record.Insert(ws[i], record.Value{Attrs: map[string]int64{"v": 0}}),
			WriteSet: ws, KeySeq: seqs[i], WriteSeqs: seqs,
		}
	}
	return m
}

// TestProposeBatchWriteSetOnce: a transaction's write set crosses the
// wire once per MsgProposeBatch, not once per option (§3.2.3 has every
// option carry it; sharing one slice makes that one copy), so a
// replica's frame grows linearly in the write set. A one-option batch
// is byte-identical to the version-2 encoding, every decoded option of
// one transaction shares one WriteSet and WriteSeqs backing array, and
// a batch mixing several transactions' options keeps each one's own set.
func TestProposeBatchWriteSetOnce(t *testing.T) {
	size := map[int]int{}
	for _, n := range []int{1, 2, 10, 50} {
		m := oneTxnBatch("gw/us-west/c0~1a2b3c4d#17", n)
		frame, err := transport.AppendEnvelope(nil, transport.Envelope{From: "gw/us-west/c0", To: "us-west/store0", Msg: m})
		if err != nil {
			t.Fatal(err)
		}
		size[n] = 4 + len(frame) // the TCP length prefix and the envelope
		if n == 1 {
			raw := m.AppendWire(nil)
			want := appendOption(transport.AppendUvarint(nil, 1), m.Opts[0])
			if !bytes.Equal(raw, want) {
				t.Errorf("one-option batch changed encoding\n got %x\nwant %x", raw, want)
			}
		}
		got := binaryRoundTrip(t, m).(MsgProposeBatch)
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
		for i, o := range got.Opts {
			if &o.WriteSet[0] != &got.Opts[0].WriteSet[0] || &o.WriteSeqs[0] != &got.Opts[0].WriteSeqs[0] {
				t.Errorf("n=%d: option %d decoded its own write set, want option 0's", n, i)
			}
		}
	}
	if size[50] > 40*size[1] {
		t.Errorf("50-option frame is %d B = %.0f x the one-option %d B, want <= 40x (linear in n)",
			size[50], float64(size[50])/float64(size[1]), size[1])
	}
	t.Logf("one-transaction frame bytes: n=1 %d, n=2 %d, n=10 %d, n=50 %d", size[1], size[2], size[10], size[50])

	// Several transactions' options in one batch: shared runs, a
	// singleton, and a set equal in content to its neighbour's but not
	// the same slice.
	a, b := oneTxnBatch("tx-a", 3), oneTxnBatch("tx-b", 2)
	lone := samplePhysicalOption()
	twin := oneTxnBatch("tx-c", 2).Opts[1]
	mixed := MsgProposeBatch{Opts: append(append(append(append([]Option(nil), a.Opts...), lone), b.Opts...), twin)}
	got := binaryRoundTrip(t, mixed).(MsgProposeBatch)
	if !reflect.DeepEqual(got, mixed) {
		t.Fatalf("mixed batch round trip mismatch\n got %#v\nwant %#v", got, mixed)
	}
	shares := func(i, j int) bool { return &got.Opts[i].WriteSet[0] == &got.Opts[j].WriteSet[0] }
	if !shares(0, 2) || !shares(4, 5) {
		t.Error("options of one transaction decoded separate write sets")
	}
	if shares(2, 4) || shares(5, 6) {
		t.Error("options of different transactions decoded one write set")
	}
}

// ---- randomized parity ----

func randString(r *rand.Rand) string {
	n := r.Intn(12)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func randAttrs(r *rand.Rand) map[string]int64 {
	n := r.Intn(4)
	if n == 0 {
		return nil
	}
	m := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		m[fmt.Sprintf("a%d%s", i, randString(r))] = r.Int63n(2001) - 1000
	}
	return m
}

func randWireValue(r *rand.Rand) record.Encoded {
	v := record.Value{Attrs: randAttrs(r), Tombstone: r.Intn(4) == 0}
	if n := r.Intn(6); n > 0 {
		v.Blob = make([]byte, n)
		r.Read(v.Blob)
	}
	return record.Encode(v)
}

func randUpdate(r *rand.Rand) record.Update {
	u := record.Update{Key: record.Key(randString(r))}
	switch r.Intn(3) {
	case 0:
		u.Kind = record.KindPhysical
		u.ReadVersion = record.Version(r.Uint64() >> 32)
		u.NewValue = randWireValue(r)
	case 1:
		u.Kind = record.KindCommutative
		u.Deltas = randAttrs(r)
		u.Merged = r.Intn(5)
	default:
		u.Kind = record.KindReadCheck
		u.ReadVersion = record.Version(r.Uint64() >> 32)
	}
	return u
}

func randWireOption(r *rand.Rand) Option {
	o := Option{
		Tx:     TxID(randString(r)),
		Coord:  transport.NodeID(randString(r)),
		Update: randUpdate(r),
		KeySeq: r.Uint64() >> 40,
	}
	if n := r.Intn(3); n > 0 {
		o.WriteSet = make([]record.Key, n)
		o.WriteSeqs = make([]uint64, n)
		for i := 0; i < n; i++ {
			o.WriteSet[i] = record.Key(randString(r))
			o.WriteSeqs[i] = r.Uint64() >> 40
		}
	}
	return o
}

func randWireEscrow(r *rand.Rand) EscrowSnap {
	if r.Intn(3) == 0 {
		return EscrowSnap{}
	}
	e := EscrowSnap{Valid: true, Version: record.Version(r.Uint64() >> 32), Contenders: r.Intn(9)}
	for i, n := 0, r.Intn(3); i < n; i++ {
		e.Attrs = append(e.Attrs, AttrEscrow{
			Attr: randString(r), Base: r.Int63n(1000),
			PendDown: -r.Int63n(100), PendUp: r.Int63n(100),
		})
	}
	return e
}

func randWireBallot(r *rand.Rand) paxos.Ballot {
	return paxos.Ballot{N: r.Uint64() >> 40, Fast: r.Intn(2) == 0, Leader: randString(r)}
}

func randWireVote(r *rand.Rand) MsgVote {
	return MsgVote{
		OptID:      OptionID{Tx: TxID(randString(r)), Key: record.Key(randString(r))},
		Ballot:     randWireBallot(r),
		Decision:   Decision(r.Intn(3)),
		Reason:     RejectReason(r.Intn(2)),
		Forwarded:  r.Intn(2) == 0,
		WrongGroup: r.Intn(4) == 0,
		Leader:     transport.NodeID(randString(r)),
		Escrow:     randWireEscrow(r),
	}
}

func randWireRanges(r *rand.Rand) []SeqRange {
	n := r.Intn(3)
	if n == 0 {
		return nil
	}
	rs := make([]SeqRange, n)
	for i := range rs {
		lo := r.Uint64() >> 40
		rs[i] = SeqRange{Lo: lo, Hi: lo + uint64(r.Intn(10))}
	}
	return rs
}

func randWireLineage(r *rand.Rand) LineageSummary {
	s := LineageSummary{Deltas: r.Intn(2) == 0, Physical: r.Intn(2) == 0}
	for i, n := 0, r.Intn(3); i < n; i++ {
		s.Lanes = append(s.Lanes, LaneLineage{
			Lane: randString(r), Done: randWireRanges(r), Rejected: randWireRanges(r),
		})
	}
	return s
}

func randGuardedOption(r *rand.Rand) (Option, bool) {
	if r.Intn(2) == 0 {
		return Option{}, false
	}
	return randWireOption(r), true
}

func randVoted(r *rand.Rand) []VotedOption {
	var vs []VotedOption
	for i, n := 0, r.Intn(3); i < n; i++ {
		vs = append(vs, VotedOption{
			Opt: randWireOption(r), Decision: Decision(r.Intn(3)), Reason: RejectReason(r.Intn(2)),
		})
	}
	return vs
}

// nWirePicks is the number of message types randWireMessage covers.
const nWirePicks = 22

// randWireMessage generates a canonical random message; pick selects
// the type so the fuzzer can steer coverage.
func randWireMessage(r *rand.Rand, pick uint8) transport.Message {
	switch pick % nWirePicks {
	case 0:
		return MsgRead{ReqID: r.Uint64() >> 40, Key: record.Key(randString(r))}
	case 1:
		return MsgReadReply{
			ReqID: r.Uint64() >> 40, Key: record.Key(randString(r)),
			Value: randWireValue(r), Version: record.Version(r.Uint64() >> 32),
			Exists: r.Intn(2) == 0, Escrow: randWireEscrow(r),
		}
	case 2:
		return MsgProposeFast{Opt: randWireOption(r)}
	case 3:
		// Each option after the first shares both of the previous
		// option's sets (the next option of one transaction), shares
		// only its write set, or has its own.
		var m MsgProposeBatch
		for i, n := 0, r.Intn(5); i < n; i++ {
			o := randWireOption(r)
			if i > 0 {
				prev := m.Opts[i-1]
				switch r.Intn(3) {
				case 0:
					o.WriteSet, o.WriteSeqs = prev.WriteSet, prev.WriteSeqs
				case 1:
					o.WriteSet = prev.WriteSet
				}
			}
			m.Opts = append(m.Opts, o)
		}
		return m
	case 4:
		return randWireVote(r)
	case 5:
		var m MsgVoteBatch
		for i, n := 0, r.Intn(4); i < n; i++ {
			m.Votes = append(m.Votes, randWireVote(r))
		}
		return m
	case 6:
		return MsgLearned{
			OptID:    OptionID{Tx: TxID(randString(r)), Key: record.Key(randString(r))},
			Decision: Decision(r.Intn(3)), Reason: RejectReason(r.Intn(2)),
			Escrow: randWireEscrow(r),
		}
	case 7:
		return MsgVisibility{Opt: randWireOption(r), Commit: r.Intn(2) == 0}
	case 8:
		var m MsgVisibilityBatch
		for i, n := 0, r.Intn(4); i < n; i++ {
			m.Items = append(m.Items, MsgVisibility{Opt: randWireOption(r), Commit: r.Intn(2) == 0})
		}
		return m
	case 9:
		m := MsgPhase2a{
			Key: record.Key(randString(r)), Ballot: randWireBallot(r), Seq: r.Uint64() >> 40,
			CStruct: randVoted(r),
		}
		if r.Intn(4) > 0 {
			m.HasBase = true
			m.BaseVersion = record.Version(r.Uint64() >> 32)
			m.BaseValue = randWireValue(r)
			m.BaseExists = r.Intn(2) == 0
			m.BaseLineage = randWireLineage(r)
		}
		return m
	case 10:
		m := MsgPhase2b{
			Key: record.Key(randString(r)), Ballot: randWireBallot(r),
			Seq: r.Uint64() >> 40, OK: r.Intn(2) == 0,
		}
		if !m.OK {
			m.Promised = randWireBallot(r)
		}
		return m
	case 11:
		m := MsgVisibilitySub{Epoch: r.Uint64() >> 40}
		for i, n := 0, r.Intn(3); i < n; i++ {
			m.CatchUp = append(m.CatchUp, record.Key(randString(r)))
		}
		return m
	case 13:
		return MsgProposeLeader{Opt: randWireOption(r)}
	case 14:
		m := MsgStartRecovery{Key: record.Key(randString(r))}
		m.Opt, m.HasOpt = randGuardedOption(r)
		return m
	case 15:
		return MsgPhase1a{Key: record.Key(randString(r)), Ballot: randWireBallot(r)}
	case 16:
		return MsgPhase1b{
			Key: record.Key(randString(r)), Ballot: randWireBallot(r), Bal: randWireBallot(r),
			Votes: randVoted(r), Version: record.Version(r.Uint64() >> 32),
			Value: randWireValue(r), Exists: r.Intn(2) == 0, Lineage: randWireLineage(r),
		}
	case 17:
		return MsgEnableFast{Key: record.Key(randString(r)), Ballot: randWireBallot(r)}
	case 18:
		m := MsgRecoverOpt{
			ReqID: r.Uint64() >> 40, Tx: TxID(randString(r)),
			Key: record.Key(randString(r)), KeySeq: r.Uint64() >> 40,
		}
		m.Opt, m.HasOpt = randGuardedOption(r)
		return m
	case 19:
		m := MsgOptDecided{
			ReqID: r.Uint64() >> 40, Tx: TxID(randString(r)),
			Key: record.Key(randString(r)), Decision: Decision(r.Intn(3)),
		}
		m.Opt, m.HasOpt = randGuardedOption(r)
		return m
	case 20:
		return MsgSyncReq{ReqID: r.Uint64() >> 40, From: record.Key(randString(r)), Limit: r.Intn(600) - 50}
	case 21:
		m := MsgSyncReply{ReqID: r.Uint64() >> 40, Next: record.Key(randString(r))}
		for i, n := 0, r.Intn(3); i < n; i++ {
			m.Entries = append(m.Entries, SyncEntry{
				Key: record.Key(randString(r)), Value: randWireValue(r),
				Version: record.Version(r.Uint64() >> 32), Lineage: randWireLineage(r),
			})
		}
		return m
	default:
		m := MsgVisibilityFeed{Epoch: r.Uint64() >> 40, Seq: r.Uint64() >> 40, Boot: r.Uint64() >> 40}
		for i, n := 0, r.Intn(3); i < n; i++ {
			m.Items = append(m.Items, FeedItem{
				Key: record.Key(randString(r)), Value: randWireValue(r),
				Version: record.Version(r.Uint64() >> 32),
				Exists:  r.Intn(2) == 0, Escrow: randWireEscrow(r),
			})
		}
		return m
	}
}

// FuzzWireParity drives random canonical messages through both codecs
// and demands agreement: decode(encode(m)) == m and binary-decoded ==
// gob-decoded. Runs its seed corpus under plain `go test`; `go test
// -fuzz=FuzzWireParity ./internal/core/` explores further.
func FuzzWireParity(f *testing.F) {
	for pick := uint8(0); pick < nWirePicks; pick++ {
		f.Add(int64(pick)*7919, pick)
	}
	// More propose batches, so the corpus alone mixes shared, partly
	// shared and unshared write sets.
	for seed := int64(1); seed <= 16; seed++ {
		f.Add(seed, uint8(3))
	}
	f.Fuzz(func(t *testing.T, seed int64, pick uint8) {
		r := rand.New(rand.NewSource(seed))
		msg := randWireMessage(r, pick)
		in := transport.Envelope{From: "a", To: "b", Msg: msg}
		b, err := transport.AppendEnvelope(nil, in)
		if err != nil {
			t.Fatalf("encode %T: %v", msg, err)
		}
		out, err := transport.DecodeEnvelope(transport.NewWireReader(b))
		if err != nil {
			t.Fatalf("decode %T: %v", msg, err)
		}
		if !reflect.DeepEqual(out.Msg, msg) {
			t.Fatalf("binary round trip mismatch\n got %#v\nwant %#v", out.Msg, msg)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&in); err != nil {
			t.Fatalf("gob encode: %v", err)
		}
		var ge transport.Envelope
		if err := gob.NewDecoder(&buf).Decode(&ge); err != nil {
			t.Fatalf("gob decode: %v", err)
		}
		if !reflect.DeepEqual(out.Msg, ge.Msg) {
			t.Fatalf("binary and gob decode disagree\n bin %#v\n gob %#v", out.Msg, ge.Msg)
		}
	})
}

// FuzzWireDecode throws raw bytes at the frame decoder: it must
// return an error or a message, never panic or over-allocate.
func FuzzWireDecode(f *testing.F) {
	for _, msg := range wireSamples() {
		b, err := transport.AppendEnvelope(nil, transport.Envelope{From: "a", To: "b", Msg: msg})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _ = transport.DecodeEnvelope(transport.NewWireReader(b))
	})
}
