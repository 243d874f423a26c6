package main

import (
	"reflect"
	"testing"

	"mdcc"
	"mdcc/internal/core"
	"mdcc/internal/gateway"
	"mdcc/internal/simnet"
	"mdcc/internal/trace"
	"mdcc/internal/wal"
)

// TestOptionStructSizes pins the field counts of the option structs
// the flags (and the library's callers) fill in. Growing one is
// the same decision as adding a flag; DESIGN.md "Options" lists every
// surviving field with who sets it and which bench arm varies it.
func TestOptionStructSizes(t *testing.T) {
	for _, c := range []struct {
		v    interface{}
		want int
	}{
		{core.Config{}, 12},
		{gateway.Tuning{}, 5},
		{trace.Config{}, 1},
		{wal.Options{}, 4},
		{core.DurableOptions{}, 4},
		{simnet.Options{}, 9},
		{mdcc.ClusterConfig{}, 6},
	} {
		typ := reflect.TypeOf(c.v)
		if got := typ.NumField(); got != c.want {
			t.Errorf("%s has %d fields, want %d", typ, got, c.want)
		}
	}
}
