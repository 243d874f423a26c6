package main

import (
	"fmt"
	"sync"
	"time"

	"mdcc"
	"mdcc/internal/kv"
)

// counterOf is what the ledger predicts: commits applied to the key.
func (dr *driver) counterOf(v mdcc.Value) int64 {
	if dr.s.commute {
		return initialStock - v.Attr(stockAttr)
	}
	return v.Attr(counterAttr)
}

// admits reports whether a key's counter is one the ledger allows: every
// acknowledged commit applied, and nothing beyond the commits whose
// outcome stayed unknown.
func (dr *driver) admits(k int, got int64) bool {
	acked := dr.acked[k].Load()
	return got >= acked && got <= acked+dr.unknown[k].Load()
}

// verify quorum-reads every key after the load has stopped and checks
// it against the ledger. Visibility is asynchronous, so a lagging read
// is retried until the deadline.
func (dr *driver) verify() error {
	const workers = 256
	deadline := time.Now().Add(10 * time.Second)
	keys := make(chan int)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(sess session) {
			defer wg.Done()
			var failed error
			for k := range keys {
				if failed != nil {
					continue // drain
				}
				for {
					v, _, exists, err := sess.ReadLatest(dr.keys[k])
					if err == nil && exists && dr.admits(k, dr.counterOf(v)) {
						break
					}
					if time.Now().After(deadline) {
						failed = fmt.Errorf("verify %s: counter=%d exists=%v err=%v, ledger acked=%d unknown=%d",
							dr.keys[k], dr.counterOf(v), exists, err, dr.acked[k].Load(), dr.unknown[k].Load())
						errs <- failed
						break
					}
					time.Sleep(20 * time.Millisecond)
				}
			}
		}(dr.d.sessions[w%clientSessions])
	}
	for k := 0; k < dr.s.keys; k++ {
		keys <- k
	}
	close(keys)
	wg.Wait()
	close(errs)
	return <-errs
}

// verifyDurable reopens every node's data directory after shutdown and
// checks that at least a classic quorum of replicas holds every
// acknowledged version. It returns how long the reopen (recovery) took.
func (dr *driver) verifyDurable() (reopen time.Duration, err error) {
	const quorum = 3
	holders := make([]int, dr.s.keys)
	t0 := time.Now()
	var stores []*kv.Store
	for _, dir := range dr.d.dataDirs {
		ds, err := openDurable(dir)
		if err != nil {
			return 0, fmt.Errorf("reopen %s: %w", dir, err)
		}
		defer ds.Close()
		stores = append(stores, ds.Store)
	}
	reopen = time.Since(t0)
	for _, st := range stores {
		for k := range holders {
			if v, _, ok := st.Get(dr.keys[k]); ok && dr.admits(k, dr.counterOf(v)) {
				holders[k]++
			}
		}
	}
	for k, n := range holders {
		if n < quorum {
			return reopen, fmt.Errorf("after reopen only %d replicas hold %s at its acknowledged version (acked=%d)",
				n, dr.keys[k], dr.acked[k].Load())
		}
	}
	return reopen, nil
}
