package scenario

import (
	"os"
	"testing"

	"mdcc/internal/server"
)

// TestConfigDeviations: every registered scenario, traced or not, runs
// server.Config except where DESIGN.md §14's core.Config table lists
// the `harness` or the scenario by name.
func TestConfigDeviations(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range All() {
		for _, traced := range []bool{false, true} {
			for _, f := range server.Unlisted(design, s.config(Options{Trace: traced}), "harness", s.Name) {
				t.Errorf("%s (trace %v) sets core.Config.%s away from server.Config, and DESIGN.md §14 does not list it", s.Name, traced, f)
			}
		}
	}
}
