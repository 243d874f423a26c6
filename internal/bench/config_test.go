package bench

import (
	"os"
	"testing"
	"time"

	"mdcc/internal/gateway"
	"mdcc/internal/record"
	"mdcc/internal/server"
	"mdcc/internal/topology"
	"mdcc/internal/trace"
)

// TestConfigDeviations: the paper's baselines and the gateway arms
// build from server.Config, and every field they set away from it is
// one DESIGN.md §14's core.Config table lists for them.
func TestConfigDeviations(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	west := func(record.Key) topology.DC { return topology.USWest }
	for _, o := range []Options{
		{Protocol: ProtoMDCC},
		{Protocol: ProtoFast, Gamma: 10, DisableBatching: true},
		{Protocol: ProtoMulti, MasterDC: west, SyncInterval: time.Second},
	} {
		for _, f := range server.Unlisted(design, o.coreConfig(), "bench.Options") {
			t.Errorf("%s sets core.Config.%s away from server.Config, and DESIGN.md §14 does not list it", o.Protocol, f)
		}
	}
	_, cfg, _ := newHotKeyDeployment(1, GatewayScale{Sessions: 1, HotKeys: 1, NodesPerDC: 1}, true, gateway.Tuning{}, trace.New(trace.Config{}))
	for _, f := range server.Unlisted(design, cfg, "newHotKeyDeployment") {
		t.Errorf("the gateway arms set core.Config.%s away from server.Config, and DESIGN.md §14 does not list it", f)
	}
}
