package main

import (
	"fmt"

	"mdcc"
)

// A spec is one workload: a deployment, a transaction shape and the
// frozen load constants. Nothing here adapts at run time; BENCHMARK.json
// and README.md quote these numbers.
type spec struct {
	name string
	why  string

	commute bool    // txn = one commutative decrement of a hot key; else read-modify-write
	tcp     bool    // five loopback TCP transports + gateway RPC clients; else in-process Local
	gateway bool    // clients attach to the USWest gateway; else private coordinators
	durable bool    // storage nodes built as cmd/mdcc-server -data builds them
	scale   float64 // Local only: multiplier on topology's WAN latency matrix

	keys    int // records preloaded (and walked)
	rate    int // R: paced-phase arrivals per second
	callers int // K: closed-phase callers
	warmup  int // warm-up transactions, part of setup
}

// The four workloads. R sits at or below half of the closed-loop
// throughput measured on the 2-core authoring host (README.md).
// BENCHMARK.json lists the two that are gated. hot-commute and
// tcp-durable are not: on a shared host the first flips between batching
// regimes (and, after a long stall, into classic ballots), and the
// second's fsync does not repeat. README.md has the measurements.
var specs = []spec{
	{
		name:    "hot-commute",
		why:     "8 hot keys, commutative decrements through the gateway: coalescing, batching and admission do the work, core sees merged options",
		commute: true, gateway: true, scale: 0.3,
		keys: 8, rate: 5000, callers: 2048, warmup: 50000,
	},
	{
		name: "tcp-rmw",
		why:  "read-modify-write over five loopback TCP transports via gateway RPC: codec, sockets and the full per-transaction core path carry the cost",
		tcp:  true, gateway: true,
		keys: 8000, rate: 1000, callers: 256, warmup: 8000,
	},
	{
		name: "tcp-durable",
		why:  "tcp-rmw on durable nodes (group-commit WAL, oplog, checkpoints): the difference to tcp-rmw is the price of wal+kv",
		tcp:  true, gateway: true, durable: true,
		keys: 1000, rate: 300, callers: 16, warmup: 300,
	},
	{
		name:  "wan-rmw",
		why:   "read-modify-write from private coordinators at 0.3x WAN latency, no gateway: p50 is one fast-quorum round trip, CPU work must not move it",
		scale: 0.3,
		keys:  5000, rate: 800, callers: 256, warmup: 5000,
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// quick shrinks a workload for the smoke test: a tenth of the keys and
// warm-up (the phases are shortened by the caller). It keeps enough keys
// that a slow machine does not revisit one before its last write is
// visible.
func (s spec) quick() spec {
	if !s.commute {
		s.keys = max(s.keys/10, 400)
	}
	s.warmup /= 10
	return s
}

// stride walks the key space: key[(start + i*stride) mod keys]. It is
// prime and larger than any K, so transactions in flight together never
// share a key and every commit succeeds by construction.
const stride = 7919

const (
	stockAttr    = "stock"
	counterAttr  = "v"
	initialStock = int64(1) << 40
)

func (s spec) key(i int) mdcc.Key {
	if s.commute {
		return mdcc.Key(fmt.Sprintf("hot/%d", i))
	}
	return mdcc.Key(fmt.Sprintf("k/%06d", i))
}
