package core

import (
	"testing"

	"mdcc/internal/transport"
)

// Dispatch-path microbenchmarks: run with
//
//	go test ./internal/core/ -bench 'Wire' -benchmem
//
// CI gates the alloc columns via TestWireEncodeAllocFree below.

func benchEncodeBinary(b *testing.B, msg transport.Message) {
	b.Helper()
	e := transport.Envelope{From: "dc1/store0", To: "dc2/app0", Msg: msg}
	buf, err := transport.AppendEnvelope(nil, e)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = transport.AppendEnvelope(buf[:0], e)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecodeBinary(b *testing.B, msg transport.Message) {
	b.Helper()
	buf, err := transport.AppendEnvelope(nil, transport.Envelope{From: "dc1/store0", To: "dc2/app0", Msg: msg})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transport.DecodeEnvelope(transport.NewWireReader(buf)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodePhase2aBinary(b *testing.B) {
	benchEncodeBinary(b, wireSamples()["MsgPhase2a"])
}
func BenchmarkWireDecodePhase2aBinary(b *testing.B) {
	benchDecodeBinary(b, wireSamples()["MsgPhase2a"])
}

func BenchmarkWireEncodeVoteBatchBinary(b *testing.B) {
	benchEncodeBinary(b, wireSamples()["MsgVoteBatch"])
}
func BenchmarkWireDecodeVoteBatchBinary(b *testing.B) {
	benchDecodeBinary(b, wireSamples()["MsgVoteBatch"])
}

func BenchmarkWireEncodeFeedBinary(b *testing.B) {
	benchEncodeBinary(b, wireSamples()["MsgVisibilityFeed"])
}

// The benchmark's 50-key preload transaction as one replica receives it.
func BenchmarkWireDecodeProposeBatch50Binary(b *testing.B) {
	benchDecodeBinary(b, oneTxnBatch("gw/us-west/c0~1a2b3c4d#17", 50))
}

// TestWireEncodeAllocFree is the allocation gate: encoding a hot
// message into a reused frame buffer must not allocate. This is what
// keeps the TCP write loop's steady state allocation-free, and it
// runs under plain `go test` so CI catches regressions without
// benchmark plumbing.
func TestWireEncodeAllocFree(t *testing.T) {
	samples := wireSamples()
	for _, name := range []string{"MsgPhase2a", "MsgPhase2b_ok", "MsgVoteBatch", "MsgVisibilityFeed", "MsgProposeBatch"} {
		e := transport.Envelope{From: "dc1/store0", To: "dc2/app0", Msg: samples[name]}
		buf, err := transport.AppendEnvelope(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			var err error
			buf, err = transport.AppendEnvelope(buf[:0], e)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%s: encode allocates %.1f objects/op, want 0", name, allocs)
		}
	}
}

// TestWireDecodeSteadyStateAllocs is the decode-side allocation gate:
// with the intern table warm, decoding a hot message allocates only
// the message's own structure — interface boxing, slices, maps, and
// transaction ids (the deliberate non-interned exception). Record
// keys, node ids, ballot leaders, attribute and lane names decode
// through transport's intern table and must NOT cost one string copy
// per occurrence; a regression that reintroduces per-string copies
// blows well past these pinned budgets.
//
// MsgProposeBatch16 is one transaction's 16 inserts to one replica: the
// options share one write set, so it decodes one WriteSet and one
// WriteSeqs slice, not sixteen of each (two allocations per option —
// its id and its value's bytes — plus five; version 2 took 83, and 53
// while a value decoded to an attribute map). A physical option's value
// is one allocation wherever it rides: the bytes, copied out of the
// frame, never a map.
func TestWireDecodeSteadyStateAllocs(t *testing.T) {
	samples := wireSamples()
	samples["MsgProposeBatch16"] = oneTxnBatch("gw/us-west/c0~1a2b3c4d#17", 16)
	budgets := map[string]float64{
		"MsgRead":            2,
		"MsgReadReply":       4,
		"MsgVoteBatch":       6,
		"MsgLearned":         4,
		"MsgPhase2a":         16,
		"MsgPhase2b_ok":      2,
		"MsgProposeBatch":    14,
		"MsgProposeBatch16":  37,
		"MsgVisibilityBatch": 11,
		"MsgVisibilityFeed":  5,
	}
	for name, budget := range budgets {
		buf, err := transport.AppendEnvelope(nil, transport.Envelope{From: "dc1/store0", To: "dc2/app0", Msg: samples[name]})
		if err != nil {
			t.Fatal(err)
		}
		// Warm pass: admit this sample's strings to the intern table.
		if _, err := transport.DecodeEnvelope(transport.NewWireReader(buf)); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := transport.DecodeEnvelope(transport.NewWireReader(buf)); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("%s: decode allocates %.1f objects/op, budget %.0f", name, allocs, budget)
		}
		// Pooled-frame pass: DecodeFrame — the TCP read loop's actual
		// entry point — recycles the reader struct itself, so it must
		// beat the fresh-reader budget by at least that one allocation.
		pooled := testing.AllocsPerRun(200, func() {
			if _, err := transport.DecodeFrame(buf); err != nil {
				t.Fatal(err)
			}
		})
		if pooled > budget-1 {
			t.Errorf("%s: pooled DecodeFrame allocates %.1f objects/op, budget %.0f (reader must come from the pool)", name, pooled, budget-1)
		}
	}
}
