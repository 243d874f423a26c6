package scenario

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/verdicts.golden")

// wallField matches the one real-clock value a Report prints: the
// disk replay time of a storage restart.
var wallField = regexp.MustCompile(`wall=\S+`)

// TestScenarioVerdictsGolden pins the simulated behaviour of the whole
// stack: seeds 1-3 of every registered scenario at the smoke sizing,
// each report hashed with its wall-clock fields and scratch directory
// masked, against the committed hashes. A behaviour-preserving
// refactor leaves testdata/verdicts.golden byte-identical; a change
// that moves any simulated schedule, counter or nemesis line shows up
// as a diff of that file (regenerate with -update and say why).
func TestScenarioVerdictsGolden(t *testing.T) {
	var got strings.Builder
	for _, s := range All() {
		for seed := int64(1); seed <= 3; seed++ {
			dir := t.TempDir()
			res, err := s.Run(Options{Seed: seed, Clients: 12, Duration: 12 * time.Second, Faults: true, Dir: dir})
			if err != nil {
				t.Fatalf("%s seed %d: %v", s.Name, seed, err)
			}
			rep := strings.ReplaceAll(res.Report(), dir, "DIR")
			rep = wallField.ReplaceAllString(rep, "wall=X")
			fmt.Fprintf(&got, "%s %d %x\n", s.Name, seed, sha256.Sum256([]byte(rep)))
			if !res.Passed() {
				t.Errorf("%s seed %d failed:\n%s", s.Name, seed, rep)
			}
		}
	}
	path := filepath.Join("testdata", "verdicts.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got.String() == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got.String(), "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			t.Errorf("verdict changed: got %q, golden line %d differs", line, i+1)
		}
	}
}
