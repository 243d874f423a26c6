package gateway

import (
	"errors"
	"testing"
	"time"

	"mdcc/internal/record"
	"mdcc/internal/ring"
)

// TestFreezeShardsFencesAdmission pins the move-time freeze: while a
// shard slice is frozen, commits touching it are refused with
// ErrWrongShard naming the next epoch, commits elsewhere proceed, and
// RingPublished lifts the fence.
func TestFreezeShardsFencesAdmission(t *testing.T) {
	w := newTestWorld(t, Tuning{}, nil)
	hot := record.Key("item/moving")
	cold := record.Key("item/staying")
	w.preload(hot, record.Value{Attrs: map[string]int64{"v": 1}})
	w.preload(cold, record.Value{Attrs: map[string]int64{"v": 1}})

	next := w.cl.Ring().Epoch() + 1
	w.gw.FreezeShards(func(k record.Key) bool { return k == hot }, next)

	var hotErr error
	var coldOK bool
	w.net.At(0, func() {
		w.gw.Commit([]record.Update{record.Physical(hot, 1, record.Value{Attrs: map[string]int64{"v": 2}})},
			func(ok bool, err error) { hotErr = err })
		w.gw.Commit([]record.Update{record.Physical(cold, 1, record.Value{Attrs: map[string]int64{"v": 2}})},
			func(ok bool, err error) { coldOK = ok })
	})
	w.net.RunFor(10 * time.Second)
	var ws ring.ErrWrongShard
	if !errors.As(hotErr, &ws) || ws.Epoch != next {
		t.Fatalf("frozen-key commit error = %v, want ErrWrongShard{%d}", hotErr, next)
	}
	if !coldOK {
		t.Fatal("non-moving key was fenced by the freeze")
	}
	if n := w.gw.InflightMoving(); n != 0 {
		t.Fatalf("InflightMoving = %d after refusal, want 0", n)
	}

	w.gw.RingPublished()
	var hotOK bool
	w.net.At(0, func() {
		w.gw.Commit([]record.Update{record.Physical(hot, 1, record.Value{Attrs: map[string]int64{"v": 2}})},
			func(ok bool, err error) { hotOK = ok })
	})
	w.net.RunFor(10 * time.Second)
	if !hotOK {
		t.Fatal("freeze did not lift after RingPublished")
	}
}
