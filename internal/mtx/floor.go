package mtx

import (
	"sync"

	"mdcc/internal/record"
)

// floorRetries caps the quorum re-reads one floored read may spend.
// Visibility is asynchronous, so right after a commit even a quorum
// can briefly lag the version the session already knows; six
// wide-area rounds outlast that lag, and a replica set still below the
// floor after them is unreachable or partitioned, not slow.
const floorRetries = 6

// ReadAtFloor is the client contract's floor rule (DESIGN.md §8), the
// one place it is decided: take one read through first — the nearest
// replica, or a gateway's floored read — and while the answer is below
// floor, re-read through again (an up-to-date quorum read), at most
// floorRetries times. cb fires exactly once with the last answer; met
// reports whether it reached the floor. A caller holding session
// guarantees consumes the answer only when met — a miss is a failed
// read (Session: ErrTimeout), never a stale value. An absent answer
// has version 0, so below a positive floor it is re-read like any
// other lagging replica.
func ReadAtFloor(first, again func(ReadFunc), floor record.Version,
	cb func(val record.Value, ver record.Version, exists, met bool)) {
	retries := 0
	var got ReadFunc
	got = func(val record.Value, ver record.Version, exists bool) {
		if ver < floor && retries < floorRetries {
			retries++
			again(got)
			return
		}
		cb(val, ver, exists, ver >= floor)
	}
	first(got)
}

// Floors is the other half of the contract: which version of each key
// one session may no longer read below. The zero value tracks nothing —
// every floor is 0, the answer for a session without guarantees — until
// Enable. Safe for concurrent use.
type Floors struct {
	mu   sync.Mutex
	seen map[record.Key]record.Version // nil until Enable
}

// Enable starts tracking: from here on reads never go backwards
// (monotonic reads) and observe the session's own acknowledged physical
// writes (read-your-writes).
func (f *Floors) Enable() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.seen == nil {
		f.seen = make(map[record.Key]record.Version)
	}
}

// Floor is the minimum version the session may observe for key.
func (f *Floors) Floor(key record.Key) record.Version {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen[key]
}

// Read raises key's floor to ver, the version of a read the session
// consumed. Floors only rise.
func (f *Floors) Read(key record.Key, ver record.Version) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.seen != nil && ver > f.seen[key] {
		f.seen[key] = ver
	}
}

// Committed records an acknowledged commit of updates. A physical
// update produced a known version, the one it read plus one; a
// commutative delta did not, so it raises nothing.
func (f *Floors) Committed(updates []record.Update) {
	for _, up := range updates {
		if up.Kind == record.KindPhysical {
			f.Read(up.Key, up.ReadVersion+1)
		}
	}
}
