package mtx

import (
	"math/rand"

	"mdcc/internal/kv"
	"mdcc/internal/topology"
)

// TxnResult is what a workload transaction reports when it finishes.
type TxnResult struct {
	Committed bool
	Write     bool // write transactions are what figure 3 reports
}

// Txn executes one transaction against a client, calling done exactly
// once. It runs entirely inside the driving network's handler context.
type Txn func(c Client, rng *rand.Rand, done func(TxnResult))

// Workload generates transactions and initial data for the harness.
type Workload interface {
	// Preload produces the initial database (bulk-loaded before the
	// run, outside the measured window).
	Preload(rng *rand.Rand) []kv.Entry
	// Next returns the next transaction for one client (closed loop,
	// no think time — as in the paper's setup).
	Next(client int, dc topology.DC, rng *rand.Rand) Txn
}
