package mdcc

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"mdcc/internal/server"
)

// TestConfigDeviations: StartCluster and the loopback TCP deployment
// build from server.Config, and every field they set away from it is
// one DESIGN.md §14's core.Config table lists for them.
func TestConfigDeviations(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	cons := []Constraint{MinBound("stock", 0)}
	for _, cc := range []ClusterConfig{
		{},
		{Mode: ModeMulti, Constraints: cons, LatencyScale: 0.002},
		{DataDir: "d", SyncInterval: time.Second, LatencyScale: 1},
	} {
		if cc.LatencyScale <= 0 {
			cc.LatencyScale = 0.05 // StartCluster's default
		}
		for _, f := range server.Unlisted(design, clusterCoreConfig(cc), "StartCluster") {
			t.Errorf("StartCluster(%+v) sets core.Config.%s away from server.Config, and DESIGN.md §14 does not list it", cc, f)
		}
	}
	for _, f := range server.Unlisted(design, loopbackConfig(ModeMDCC, cons), "startTCPDeployment") {
		t.Errorf("startTCPDeployment sets core.Config.%s away from server.Config, and DESIGN.md §14 does not list it", f)
	}
}

// TestDataDirLayout pins StartCluster's DataDir layout: a node's log is
// at <DataDir>/<dc>/store<i>/wal, and a write to it survives a close
// and a reopen. A changed layout would open an existing DataDir empty.
func TestDataDirLayout(t *testing.T) {
	dir := t.TempDir()
	c := startTestCluster(t, ClusterConfig{DataDir: dir, NodesPerDC: 2})
	if err := c.dcs[APTokyo].Nodes[1].Store().Put("layout/1", Value{Attrs: map[string]int64{"x": 7}}, 1); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := os.Stat(filepath.Join(dir, "ap-tk", "store1", "wal")); err != nil {
		t.Fatalf("ap-tk's shard 1 log is not at <DataDir>/ap-tk/store1/wal: %v", err)
	}
	c = startTestCluster(t, ClusterConfig{DataDir: dir, NodesPerDC: 2})
	if v, ver, ok := c.dcs[APTokyo].Nodes[1].Store().Get("layout/1"); !ok || ver != 1 || v.Attr("x") != 7 {
		t.Fatalf("after reopen: x=%d version %d ok=%v, want x=7 at version 1", v.Attr("x"), ver, ok)
	}
}
