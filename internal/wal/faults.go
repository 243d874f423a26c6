package wal

import "sync"

// Faults is a nemesis-drivable fault plan for the file layer under a
// Log (a storage node keeps one log, so one Faults is one node's disk).
// All methods are safe for concurrent use and safe on a nil receiver
// (no faults).
//
// The fault model, mirroring how real disks fail:
//
//   - FailSync: every sync fails with ErrDiskFault until disarmed.
//     Under NoSync the *modeled* sync fails, so harnesses that never
//     pay for fsync still see the disk refuse durability. The log is
//     poisoned on the first failure (fsyncgate semantics) and cut back
//     to its last synced length, so the refused record never replays.
//   - TornWrite: one-shot — the next append writes only a prefix of
//     its frame and fails, as if the disk died mid-write. Recovery
//     must truncate the tear (tail) or report it typed (mid-segment).
//   - BitFlip: one-shot — the next append's payload is silently
//     corrupted on its way to the file. The append succeeds; replay
//     must surface ErrCorrupt, never the flipped bytes.
type Faults struct {
	mu       sync.Mutex
	failSync bool
	torn     int // -1 unarmed; else one-shot byte budget for the next frame
	bitFlip  bool
}

// NewFaults returns an empty fault plan.
func NewFaults() *Faults { return &Faults{torn: -1} }

// FailSync arms (on=true) or disarms persistent sync failure.
func (f *Faults) FailSync(on bool) {
	f.mu.Lock()
	f.failSync = on
	f.mu.Unlock()
}

// TornWrite arms a one-shot torn write: the next appended frame is cut
// to at most n bytes and the append fails.
func (f *Faults) TornWrite(n int) {
	f.mu.Lock()
	f.torn = n
	f.mu.Unlock()
}

// BitFlip arms a one-shot silent payload corruption on the next append.
func (f *Faults) BitFlip() {
	f.mu.Lock()
	f.bitFlip = true
	f.mu.Unlock()
}

// failSyncNow reports whether the current sync must fail.
func (f *Faults) failSyncNow() bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failSync
}

// takeTorn consumes a one-shot torn write, returning its byte budget.
func (f *Faults) takeTorn() (int, bool) {
	if f == nil {
		return 0, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.torn < 0 {
		return 0, false
	}
	n := f.torn
	f.torn = -1
	return n, true
}

// takeFlip consumes a one-shot bit flip.
func (f *Faults) takeFlip() bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.bitFlip {
		return false
	}
	f.bitFlip = false
	return true
}
