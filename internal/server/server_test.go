package server

import (
	"os"
	"reflect"
	"testing"

	"mdcc/internal/core"
	"mdcc/internal/record"
	"mdcc/internal/topology"
)

// TestUnlistedNamesWhatTheTableDoesNot: a field set away from Config is
// reported unless its DESIGN.md §14 row names one of the callers, and
// the row is found for every field the table lists together.
func TestUnlistedNamesWhatTheTableDoesNot(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config(core.ModeMDCC, []record.Constraint{record.MinBound("x", 0)})
	if got := Unlisted(design, cfg); got != nil {
		t.Fatalf("Config itself deviates in %v", got)
	}
	cfg.Gamma = 7
	cfg.ReadTimeout = 1
	cfg.MasterDC = func(record.Key) topology.DC { return topology.USWest }
	if got, want := Unlisted(design, cfg, "harness"), []string{"Gamma", "MasterDC", "ReadTimeout"}; !reflect.DeepEqual(got, want) {
		t.Errorf("harness: unlisted %v, want %v", got, want)
	}
	if got := Unlisted(design, cfg, "collision-storm", "master-failover", "StartCluster"); got != nil {
		t.Errorf("each field listed for one of the callers, still unlisted: %v", got)
	}
	if got := Unlisted(nil, cfg, "collision-storm"); len(got) != 3 {
		t.Errorf("without the table every deviation is unlisted, got %v", got)
	}
}
