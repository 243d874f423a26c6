package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"mdcc/internal/gateway"
)

// TestMetricsSchemaComment: the /metrics schema in http.go's package
// comment names exactly the keys a fully populated document (a durable
// shard, a gateway, phases, the flight-recorder counters) emits, at the
// same paths. A value the comment elides as { ... } (the shard's
// core.Metrics) is compared as a whole, and must carry the decided-log
// gauges DecidedEntries and DecidedBytes, which the note beside it
// names.
func TestMetricsSchemaComment(t *testing.T) {
	src, err := os.ReadFile("http.go")
	if err != nil {
		t.Fatal(err)
	}
	var schema any
	if err := json.Unmarshal(schemaJSON(t, string(src)), &schema); err != nil {
		t.Fatalf("the /metrics schema comment is not JSON once its // notes are stripped: %v", err)
	}
	want := map[string]bool{}
	opaque := map[string]bool{}
	walkKeys(schema, "", nil, func(path string, v any) {
		want[path] = true
		if m, ok := v.(map[string]any); ok && len(m) == 0 {
			opaque[path] = true
		}
	})

	doc := metricsDoc{
		Shards:        []shardOut{{Durability: &durabilityOut{}}},
		Gateway:       &gateway.Metrics{},
		Phases:        []phaseOut{{}},
		TraceEvents:   1,
		TraceDropped:  1,
		TraceRetained: 1,
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var emitted any
	if err := json.Unmarshal(raw, &emitted); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	walkKeys(emitted, "", opaque, func(path string, _ any) { got[path] = true })

	if missing := diffKeys(got, want); len(missing) > 0 {
		t.Errorf("/metrics emits keys its schema comment omits: %v", missing)
	}
	if extra := diffKeys(want, got); len(extra) > 0 {
		t.Errorf("the /metrics schema comment lists keys /metrics does not emit: %v", extra)
	}

	// The protocol block is core.Metrics whole; the decided-log gauges
	// in it are named in its note.
	protocol := emitted.(map[string]any)["shards"].([]any)[0].(map[string]any)["protocol"].(map[string]any)
	for _, gauge := range []string{"DecidedEntries", "DecidedBytes"} {
		if _, ok := protocol[gauge]; !ok {
			t.Errorf("the protocol block lacks the %s gauge", gauge)
		}
		if !strings.Contains(schemaNotes(string(src)), gauge) {
			t.Errorf("the /metrics schema comment does not name the %s gauge", gauge)
		}
	}
}

// schemaNotes is the /metrics schema comment as written, notes and all.
func schemaNotes(src string) string {
	_, rest, _ := strings.Cut(src, "/metrics schema")
	comment, _, _ := strings.Cut(rest, "\n\n")
	return comment
}

var (
	lineNote  = regexp.MustCompile(`\s*//.*$`)
	elidedObj = regexp.MustCompile(`\{\s*\.\.\.\s*\}`)
)

// schemaJSON cuts the /metrics schema out of http.go's package comment
// and strips the // notes beside its values.
func schemaJSON(t *testing.T, src string) []byte {
	t.Helper()
	_, rest, ok := strings.Cut(src, "/metrics schema")
	if !ok {
		t.Fatal("http.go has no /metrics schema comment")
	}
	var b strings.Builder
	in := false
	for _, line := range strings.Split(rest, "\n") {
		body, isComment := strings.CutPrefix(line, "//\t")
		if !isComment {
			if in {
				break
			}
			continue
		}
		if !in && strings.TrimSpace(body) != "{" {
			continue
		}
		in = true
		b.WriteString(elidedObj.ReplaceAllString(lineNote.ReplaceAllString(body, ""), "{}"))
		b.WriteByte('\n')
		if body == "}" {
			break
		}
	}
	return []byte(b.String())
}

// walkKeys calls visit with the path of every object key under v (an
// array contributes its elements' keys, as name[].key), and does not
// descend below a path in stop.
func walkKeys(v any, prefix string, stop map[string]bool, visit func(path string, v any)) {
	switch x := v.(type) {
	case map[string]any:
		for k, c := range x {
			p := prefix + k
			visit(p, c)
			if !stop[p] {
				walkKeys(c, p+".", stop, visit)
			}
		}
	case []any:
		for _, c := range x {
			walkKeys(c, strings.TrimSuffix(prefix, ".")+"[].", stop, visit)
		}
	}
}

// diffKeys lists the keys of a that b lacks, sorted.
func diffKeys(a, b map[string]bool) []string {
	var out []string
	for k := range a {
		if !b[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
