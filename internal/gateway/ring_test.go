package gateway

import (
	"errors"
	"testing"
	"time"

	"mdcc/internal/record"
	"mdcc/internal/ring"
	"mdcc/internal/topology"
	"mdcc/internal/trace"
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

// TestBacklogDrainRefusalIsTraced: a queued commit that a freeze
// catches as the backlog drains is refused as a fresh one is: with
// ring.ErrWrongShard, counted, and traced as a StageWrongShard event.
func TestBacklogDrainRefusalIsTraced(t *testing.T) {
	w := newTestWorld(t, Tuning{}, nil)
	cfg := w.cfg
	cfg.Tracer = trace.New(trace.Config{})
	w.gw = New(topology.USWest, w.net, w.cl, cfg, Tuning{MaxInflight: 1, DisableReadTier: true})
	first, queued := record.Key("item/first"), record.Key("item/queued")
	w.preload(first, record.Value{Attrs: map[string]int64{"v": 1}})
	w.preload(queued, record.Value{Attrs: map[string]int64{"v": 1}})
	next := w.cl.Ring().Epoch() + 1
	var queuedErr error
	w.net.At(0, func() {
		w.gw.Commit([]record.Update{record.Physical(first, 1, record.Value{Attrs: map[string]int64{"v": 2}})},
			func(bool, error) {})
		w.gw.Commit([]record.Update{record.Physical(queued, 1, record.Value{Attrs: map[string]int64{"v": 2}})},
			func(_ bool, err error) { queuedErr = err })
		w.gw.FreezeShards(func(k record.Key) bool { return k == queued }, next)
	})
	w.net.RunFor(10 * time.Second)
	var ws ring.ErrWrongShard
	if !errors.As(queuedErr, &ws) || ws.Epoch != next {
		t.Fatalf("queued commit error = %v, want ErrWrongShard{%d}", queuedErr, next)
	}
	if n := w.gw.Metrics().WrongShardRetries; n != 1 {
		t.Fatalf("WrongShardRetries = %d, want 1", n)
	}
	traced := 0
	for _, ev := range cfg.Tracer.Ring(string(w.gw.ID()), int(topology.USWest)).Snapshot() {
		if ev.Stage == trace.StageWrongShard && ev.Key == string(queued) && ev.Arg == int64(next) {
			traced++
		}
	}
	if traced != 1 {
		t.Fatalf("%d StageWrongShard events for the drained refusal, want 1", traced)
	}
}
