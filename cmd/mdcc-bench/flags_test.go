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
