package gateway

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mdcc/internal/record"
	"mdcc/internal/transport"
)

var updateGolden = flag.Bool("update", false, "rewrite golden wire vectors")

// rpcSamples covers the client ⇄ gateway RPC surface with canonical
// values (nil for empty, matching gob's omit-zero semantics).
func rpcSamples() map[string]transport.Message {
	return map[string]transport.Message{
		"MsgTx": MsgTx{ReqID: 7, Updates: []record.Update{
			{Kind: record.KindCommutative, Key: "item#9", Deltas: map[string]int64{"stock": -1}},
			{Kind: record.KindReadCheck, Key: "cust#2", ReadVersion: 4},
		}},
		"MsgTxReply": MsgTxReply{ReqID: 7, Committed: true},
		"MsgRead":    MsgRead{ReqID: 8, Key: "item#9", Quorum: true, Floor: 12},
		"MsgReadReply": MsgReadReply{
			ReqID:   8,
			Value:   record.Encode(record.Value{Attrs: map[string]int64{"stock": 40}}),
			Version: 12, Exists: true,
		},
	}
}

// gob is this file's decode oracle only; the product no longer
// registers message types with it, so the oracle does.
func init() {
	for _, m := range rpcSamples() {
		gob.Register(m)
	}
}

func TestRPCWireGolden(t *testing.T) {
	for name, msg := range rpcSamples() {
		wm := msg.(transport.WireMessage)
		got := hex.EncodeToString(wm.AppendWire(nil))
		path := filepath.Join("testdata", "wire_golden", name+".hex")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to regenerate)", name, err)
		}
		if got != string(bytes.TrimSpace(want)) {
			t.Errorf("%s: encoding changed\n got %s\nwant %s\nwire format changes require a WireVersion bump and -update", name, got, string(bytes.TrimSpace(want)))
		}
	}
}

func TestRPCWireRoundTripParity(t *testing.T) {
	for name, msg := range rpcSamples() {
		in := transport.Envelope{From: "cli", To: "gw", Msg: msg}
		b, err := transport.AppendEnvelope(nil, in)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		out, err := transport.DecodeEnvelope(transport.NewWireReader(b))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(out.Msg, msg) {
			t.Errorf("%s: binary round trip mismatch\n got %#v\nwant %#v", name, out.Msg, msg)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&in); err != nil {
			t.Fatalf("%s: gob encode: %v", name, err)
		}
		var ge transport.Envelope
		if err := gob.NewDecoder(&buf).Decode(&ge); err != nil {
			t.Fatalf("%s: gob decode: %v", name, err)
		}
		if !reflect.DeepEqual(out.Msg, ge.Msg) {
			t.Errorf("%s: binary and gob decode disagree\n bin %#v\n gob %#v", name, out.Msg, ge.Msg)
		}
	}
}

// TestRefusalTableRoundTrips: every refusal a client over the RPC can
// tell apart crosses the wire as its code and decodes to its error,
// wrapped or not; anything else crosses as no refusal.
func TestRefusalTableRoundTrips(t *testing.T) {
	for code := 1; code < len(refusals); code++ {
		want := refusals[code]
		for _, err := range []error{want, fmt.Errorf("%w: %q", want, "k")} {
			in := MsgTxReply{ReqID: 7, Refusal: refusalCode(err)}
			b, encErr := transport.AppendEnvelope(nil, transport.Envelope{From: "gw", To: "cli", Msg: in})
			if encErr != nil {
				t.Fatalf("%v: encode: %v", want, encErr)
			}
			out, decErr := transport.DecodeEnvelope(transport.NewWireReader(b))
			if decErr != nil {
				t.Fatalf("%v: decode: %v", want, decErr)
			}
			if got := RefusalError(out.Msg.(MsgTxReply).Refusal); got != want {
				t.Errorf("%v (code %d) decodes to %v", err, code, got)
			}
		}
	}
	for _, err := range []error{nil, ErrOutcomeUnknown, errors.New("other")} {
		if code := refusalCode(err); code != 0 {
			t.Errorf("%v crosses as refusal code %d, want none", err, code)
		}
	}
}

// TestClosedGatewayRefusesRPCCommit: a closed gateway answers an RPC
// commit with a reply that decodes to ErrClosed, as it answers an
// in-process Commit.
func TestClosedGatewayRefusesRPCCommit(t *testing.T) {
	w := newTestWorld(t, Tuning{}, nil)
	var got []transport.Envelope
	w.net.Register("client/rpc", func(env transport.Envelope) { got = append(got, env) })
	w.gw.Close()
	w.net.At(0, func() {
		w.gw.handle(transport.Envelope{From: "client/rpc", To: w.gw.ID(), Msg: MsgTx{ReqID: 3,
			Updates: []record.Update{record.Insert("k/closed", record.Value{})}}})
	})
	w.net.RunFor(time.Second)
	if len(got) != 1 {
		t.Fatalf("client got %d messages, want one MsgTxReply", len(got))
	}
	b, err := transport.AppendEnvelope(nil, got[0])
	if err != nil {
		t.Fatal(err)
	}
	out, err := transport.DecodeEnvelope(transport.NewWireReader(b))
	if err != nil {
		t.Fatal(err)
	}
	m, ok := out.Msg.(MsgTxReply)
	if !ok || m.ReqID != 3 || m.Committed || RefusalError(m.Refusal) != ErrClosed {
		t.Fatalf("reply %#v; want MsgTxReply{ReqID: 3} refused with ErrClosed", out.Msg)
	}
}
