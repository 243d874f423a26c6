package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestFlagSurface pins mdcc-sim's flag set. A flag is an option every
// test, scenario and benchmark configuration is multiplied by: adding
// one means editing this list and saying which two callers need
// different values (deployment settings — addresses, paths, node
// counts, drop %, seeds — aside).
func TestFlagSurface(t *testing.T) {
	want := []string{
		"clients",
		"duration",
		"list",
		"no-faults",
		"nodes-per-dc",
		"scenario",
		"scenario.drop",
		"scenario.trace",
		"scenario.trace-slow",
		"seed",
		"v",
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

// TestDropOutOfRangeExits: an ambient drop outside [0, 1) is refused
// with exit status 2 and the valid range named, before any run. At 1.5
// read-storm lost every message, committed nothing and printed PASS;
// at -0.5 it ran with no loss. The test re-executes its own binary as
// mdcc-sim (main reads the same flag set).
func TestDropOutOfRangeExits(t *testing.T) {
	if os.Getenv("MDCC_SIM_AS_MAIN") == "1" {
		main()
		return
	}
	for _, drop := range []string{"1.5", "-0.5", "1", "NaN"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestDropOutOfRangeExits$",
			"-scenario", "read-storm", "-no-faults", "-clients", "5", "-duration", "2s", "-scenario.drop", drop)
		cmd.Env = append(os.Environ(), "MDCC_SIM_AS_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "outside [0, 1)") {
			t.Errorf("-scenario.drop %s: %v, want exit status 2 naming [0, 1); output:\n%s", drop, err, out)
		}
	}
}

// TestNegativeSizingExits: a negative -clients, -nodes-per-dc or
// -duration is refused with exit status 2, before any run. Each used
// to mean the scenario's default, as 0 does: `-clients -5 -duration -2s
// -nodes-per-dc -1` ran read-storm at 150 clients for a minute and
// printed PASS.
func TestNegativeSizingExits(t *testing.T) {
	if os.Getenv("MDCC_SIM_AS_MAIN") == "1" {
		main()
		return
	}
	for _, sizing := range [][]string{
		{"-clients", "-5", "-duration", "-2s", "-nodes-per-dc", "-1"},
		{"-clients", "-5", "-duration", "2s"},
		{"-clients", "5", "-duration", "2s", "-nodes-per-dc", "-1"},
		{"-clients", "5", "-duration", "-2s"},
	} {
		args := append([]string{"-test.run=^TestNegativeSizingExits$", "-scenario", "read-storm", "-no-faults"}, sizing...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "MDCC_SIM_AS_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "negative") {
			t.Errorf("%q: %v, want exit status 2 naming the negative sizing; output:\n%s", sizing, err, out)
		}
	}
}
