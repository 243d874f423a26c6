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

// TestFlagSurface pins mdcc-server's flag set. A flag is an option every
// test, scenario and benchmark configuration is multiplied by: adding
// one means editing this list and saying which two callers need
// different values (deployment settings — addresses, paths, node
// counts, drop %, seeds — aside).
func TestFlagSurface(t *testing.T) {
	want := []string{
		"checkpoint-interval",
		"data",
		"dc",
		"gateway",
		"http",
		"listen",
		"profile",
		"topology",
		"trace",
		"trace-slow",
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

// TestNegativeTraceSlowExits: a negative -trace-slow is refused with
// exit status 2 before the server reads its topology; 0 keeps meaning
// the recorder's default. -1s used to serve with the 1 s default,
// because the recorder maps a threshold <= 0 to it. The test
// re-executes its own binary as mdcc-server (main reads the same flag
// set).
func TestNegativeTraceSlowExits(t *testing.T) {
	if os.Getenv("MDCC_SERVER_AS_MAIN") == "1" {
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestNegativeTraceSlowExits$",
		"-topology", t.TempDir()+"/missing.json", "-dc", "us-west", "-trace", "-trace-slow", "-1s")
	cmd.Env = append(os.Environ(), "MDCC_SERVER_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "negative") {
		t.Errorf("-trace-slow -1s: %v, want exit status 2 naming the negative threshold; output:\n%s", err, out)
	}
}

// TestNegativeCheckpointIntervalExits: a negative -checkpoint-interval
// is refused with exit status 2 naming the flag, before the server
// reads its topology; only 0 disables checkpoints. -1s used to disable
// them as 0 does, because the node arms its checkpoint timer only for
// an interval above 0.
func TestNegativeCheckpointIntervalExits(t *testing.T) {
	if os.Getenv("MDCC_SERVER_AS_MAIN") == "1" {
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestNegativeCheckpointIntervalExits$",
		"-topology", t.TempDir()+"/missing.json", "-dc", "us-west", "-data", t.TempDir(), "-checkpoint-interval", "-1s")
	cmd.Env = append(os.Environ(), "MDCC_SERVER_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "-checkpoint-interval -1s: negative") {
		t.Errorf("-checkpoint-interval -1s: %v, want exit status 2 naming the flag; output:\n%s", err, out)
	}
}
