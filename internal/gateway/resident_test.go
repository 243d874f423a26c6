package gateway

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"mdcc/internal/record"
)

// liveHeap is the heap in use after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// residentReadKeys is how many physical keys the read tier's resident
// gate materializes.
const residentReadKeys = 2000

// TestResidentBytesPerReadKey is the read tier's retained-heap gate, in
// the style of core's TestResidentBytesPerSettledOption: what the
// gateway still holds, after two collections, per physical key it
// serves from memory. The keys are read once through the tier (an RPC
// fill, then the feed's echo confirms them) and then served from
// memory; the figure is the heap the gateway's key table frees when it
// is dropped, so it counts the table's entries and key states and not
// the storage node's interest set or the values the store still holds.
// Values carry a blob and no attributes, so no escrow snapshot is valid
// and no map is allocated per key: in the unconstrained arm because the
// deployment declares no constraint, in the constrained arm (a
// MinBound on "units") because no value holds the constrained
// attribute. The constrained arm read 727 B per key, every key holding
// an escrow part, while a storage node sent a valid snapshot for every
// key of a deployment that declares any constraint.
//
// Measured go1.24, amd64: 119 B per key — the 64-byte read part and the
// key table's entry (key header, pointer and the table's slack). The
// gate allows about a fifth more for another runtime's map layout. It
// was 375 B while every key held one 216-byte state with the escrow
// account's fields and two eagerly made maps. The test also asserts
// that no physical key holds an escrow part.
func TestResidentBytesPerReadKey(t *testing.T) {
	for _, tc := range []struct {
		name string
		cons []record.Constraint
	}{
		{"unconstrained", nil},
		{"constrained", []record.Constraint{record.MinBound("units", 0)}},
	} {
		t.Run(tc.name, func(t *testing.T) { residentBytesPerReadKey(t, tc.cons) })
	}
}

func residentBytesPerReadKey(t *testing.T, cons []record.Constraint) {
	const maxPerKey = 144
	w := newTestWorld(t, Tuning{}, cons)
	keys := make([]record.Key, residentReadKeys)
	for i := range keys {
		keys[i] = record.Key(fmt.Sprintf("read/%06d", i))
		w.preload(keys[i], record.Value{Blob: []byte("8 bytes.")})
	}
	w.net.RunFor(3 * time.Second) // feeds subscribe, hellos land
	readAll := func() {
		served := 0
		w.net.At(0, func() {
			for _, key := range keys {
				w.gw.Read(key, func(_ record.Value, ver record.Version, ok bool) {
					if ok && ver == 1 {
						served++
					}
				})
			}
		})
		w.net.RunFor(5 * time.Second)
		if served != len(keys) {
			t.Fatalf("served %d of %d reads", served, len(keys))
		}
	}
	readAll() // fills every key and asks its shard for it
	readAll() // memory hits, once the feed echoed the keys
	if m := w.gw.Metrics(); m.ReadRPCs != residentReadKeys || m.LocalReads != residentReadKeys {
		t.Fatalf("%d RPC fills and %d memory hits, want %d of each", m.ReadRPCs, m.LocalReads, residentReadKeys)
	}

	w.gw.mu.Lock()
	for key, ks := range w.gw.keys {
		if ks.esc != nil {
			w.gw.mu.Unlock()
			t.Fatalf("physical key %s holds an escrow part", key)
		}
	}
	w.gw.mu.Unlock()
	held := liveHeap()
	w.gw.mu.Lock()
	w.gw.keys = make(map[record.Key]*keyState)
	w.gw.mu.Unlock()
	perKey := float64(held-liveHeap()) / residentReadKeys
	t.Logf("%.0f B retained per materialized read key", perKey)
	if perKey > maxPerKey {
		t.Errorf("%.0f B retained per materialized read key, gate %d", perKey, maxPerKey)
	}
	runtime.KeepAlive(w)
}
