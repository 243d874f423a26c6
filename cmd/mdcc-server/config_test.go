package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mdcc/internal/core"
	"mdcc/internal/record"
	"mdcc/internal/server"
	"mdcc/internal/topology"
	"mdcc/internal/trace"
	"mdcc/internal/transport"
)

// TestConfigDeviations: under default flags this server runs exactly
// server.Config, and every field a flag moves is one DESIGN.md §14's
// core.Config table lists for `mdcc-server`.
func TestConfigDeviations(t *testing.T) {
	cons := []record.Constraint{record.MinBound("stock", 0)}
	if got, want := coreConfig(core.ModeMDCC, cons, nil), server.Config(core.ModeMDCC, cons); !reflect.DeepEqual(got, want) {
		t.Errorf("default flags run %+v, want server.Config %+v", got, want)
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defer func(data string) { *dataDir = data }(*dataDir)
	*dataDir = t.TempDir()
	cfg := coreConfig(core.ModeMulti, cons, trace.New(trace.Config{}))
	for _, f := range server.Unlisted(design, cfg, "mdcc-server") {
		t.Errorf("mdcc-server -data -trace sets core.Config.%s away from server.Config, and DESIGN.md §14 does not list it", f)
	}
}

// TestDataDirLayout pins -data's layout: shard i's log is at
// <data>/shard<i>/wal, and a write to it survives a close and a reopen
// through the composition root. A changed layout would open an existing
// data directory empty.
func TestDataDirLayout(t *testing.T) {
	data := t.TempDir()
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 2, ClientDC: -1})
	start := func() (*server.DC, *transport.Local) {
		net := transport.NewLocal(func(_, _ transport.NodeID) time.Duration { return 0 })
		d, err := server.Start(topology.USEast, net, cl, server.Config(core.ModeMDCC, nil), dataDirs(data), false)
		if err != nil {
			t.Fatal(err)
		}
		return d, net
	}
	d, net := start()
	if err := d.Nodes[1].Store().Put("layout/1", record.Value{Attrs: map[string]int64{"x": 7}}, 1); err != nil {
		t.Fatal(err)
	}
	server.Close(net.Close, d)
	if _, err := os.Stat(filepath.Join(data, "shard1", "wal")); err != nil {
		t.Fatalf("shard 1's log is not at <data>/shard1/wal: %v", err)
	}
	d, net = start()
	defer server.Close(net.Close, d)
	if v, ver, ok := d.Nodes[1].Store().Get("layout/1"); !ok || ver != 1 || v.Attr("x") != 7 {
		t.Fatalf("after reopen: x=%d version %d ok=%v, want x=7 at version 1", v.Attr("x"), ver, ok)
	}
}
