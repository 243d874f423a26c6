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

// TestFlagSurface pins mdcc-client's flag set. A flag is an option every
// test, scenario and benchmark configuration is multiplied by: adding
// one means editing this list and saying which two callers need
// different values (deployment settings — addresses, paths, node
// counts, drop %, seeds — aside).
func TestFlagSurface(t *testing.T) {
	want := []string{
		"dc",
		"id",
		"listen",
		"n",
		"retries",
		"timing",
		"topology",
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

// TestRepeatBelowOneExits: -n below 1 is refused with exit status 2
// before the client reads its topology. `-n 0 get k` used to dial the
// deployment, read nothing, print nothing and exit 0. The test
// re-executes its own binary as mdcc-client (main reads the same flag
// set).
func TestRepeatBelowOneExits(t *testing.T) {
	if os.Getenv("MDCC_CLIENT_AS_MAIN") == "1" {
		main()
		return
	}
	for _, n := range []string{"0", "-3"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRepeatBelowOneExits$",
			"-topology", t.TempDir()+"/missing.json", "-n", n, "get", "k")
		cmd.Env = append(os.Environ(), "MDCC_CLIENT_AS_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "below 1") {
			t.Errorf("-n %s get k: %v, want exit status 2 naming the bound; output:\n%s", n, err, out)
		}
	}
}

// TestRetriesBelowOneExits: -retries below 1 is refused with exit
// status 2 naming the flag, before the client reads its topology.
// `-retries 0 set k v=1` used to make one attempt, the same as
// `-retries 1`, because Session.Transact reads a count below 1 as 1.
func TestRetriesBelowOneExits(t *testing.T) {
	if os.Getenv("MDCC_CLIENT_AS_MAIN") == "1" {
		main()
		return
	}
	for _, n := range []string{"0", "-5"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRetriesBelowOneExits$",
			"-topology", t.TempDir()+"/missing.json", "-retries", n, "set", "k", "v=1")
		cmd.Env = append(os.Environ(), "MDCC_CLIENT_AS_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "-retries "+n+": below 1") {
			t.Errorf("-retries %s set k v=1: %v, want exit status 2 naming the flag and the bound; output:\n%s", n, err, out)
		}
	}
}
