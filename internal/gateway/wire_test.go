package gateway

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

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
			ReqID: 8, Key: "item#9",
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
