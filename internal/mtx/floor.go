package mtx

import "mdcc/internal/record"

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
