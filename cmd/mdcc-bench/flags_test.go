package main

import (
	"flag"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestFlagSurface pins mdcc-bench's flag set. A flag is an option every
// test, scenario and benchmark configuration is multiplied by: adding
// one means editing this list and saying which two callers need
// different values (deployment settings — addresses, paths, node
// counts, drop %, seeds — aside).
func TestFlagSurface(t *testing.T) {
	want := []string{
		"csv",
		"out",
		"quick",
		"scale.drop",
		"scale.nodes",
		"seed",
		"sim-gate",
	}
	var got []string
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return
		}
		got = append(got, f.Name)
		if f.Usage == "" {
			t.Errorf("-%s has no usage string", f.Name)
		}
	})
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag surface changed:\n got %q\nwant %q", got, want)
	}
}

// TestArmsListed pins the subcommand set: the usage line and the
// dispatch both read the arms table, so an arm is in both or neither.
// The real-clock arms (live, durability) are gone: that measurement
// lives in benchmark/.
func TestArmsListed(t *testing.T) {
	want := "usage: mdcc-bench [flags] fig3|fig4|fig5|fig6|fig7|fig8|gateway|scale|all"
	if got := usageLine(); got != want {
		t.Errorf("usage line:\n got %q\nwant %q", got, want)
	}
}

// TestScaleDropRange: -scale.drop takes percentages in [0, 100). 150
// lost every message (the sweep point committed nothing) and -5 ran
// with no loss; both are refused, with the range named.
func TestScaleDropRange(t *testing.T) {
	if got, err := parseDropPcts("0, 2,99.5"); err != nil || !reflect.DeepEqual(got, []float64{0, 2, 99.5}) {
		t.Errorf("parseDropPcts(0, 2,99.5) = %v, %v", got, err)
	}
	for _, in := range []string{"150", "100", "-5", "0,NaN", "2,x"} {
		if _, err := parseDropPcts(in); err == nil {
			t.Errorf("parseDropPcts(%q) accepted", in)
		} else if in != "2,x" && !strings.Contains(err.Error(), "outside [0, 100)") {
			t.Errorf("parseDropPcts(%q): %v, want the range named", in, err)
		}
	}
}

// TestScaleNodesPositive: -scale.nodes takes node counts of at least 1.
// 0 ran the sweep at the default node count and labelled the row 0/DC,
// and -2 did the same; both are refused, with the bound named.
func TestScaleNodesPositive(t *testing.T) {
	if got, err := parseIntList("1, 4,40"); err != nil || !reflect.DeepEqual(got, []int{1, 4, 40}) {
		t.Errorf("parseIntList(1, 4,40) = %v, %v", got, err)
	}
	for _, in := range []string{"0", "4,0", "-2", "2,x"} {
		if _, err := parseIntList(in); err == nil {
			t.Errorf("parseIntList(%q) accepted", in)
		} else if in != "2,x" && !strings.Contains(err.Error(), "below 1") {
			t.Errorf("parseIntList(%q): %v, want the bound named", in, err)
		}
	}
}
