package trace

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mdcc/internal/stats"
)

// Phase identifies a pipeline interval whose latency is histogrammed.
type Phase uint8

const (
	// PhaseGatewayQueue is admit → dispatch at the gateway: time spent
	// queued behind the inflight cap and inside coalesce windows.
	PhaseGatewayQueue Phase = iota + 1
	// PhaseQuorum is propose → learned outcome at the coordinator:
	// quorum assembly, including recovery hops.
	PhaseQuorum
	// PhaseVote is propose → each voter's reply, labeled by the
	// voter's DC: the per-DC round trip the paper's fast/classic
	// latency argument is about.
	PhaseVote
	// PhaseVisibility is vote → execution at the acceptor: how long a
	// learned option waits before its side effects become readable.
	PhaseVisibility
	// PhaseEndToEnd is admit → ack as the client saw it.
	PhaseEndToEnd
)

var phaseNames = [...]string{
	PhaseGatewayQueue: "gateway-queue",
	PhaseQuorum:       "quorum",
	PhaseVote:         "vote",
	PhaseVisibility:   "visibility",
	PhaseEndToEnd:     "end-to-end",
}

// String names the phase.
func (p Phase) String() string {
	if int(p) < len(phaseNames) && phaseNames[p] != "" {
		return phaseNames[p]
	}
	return "phase?"
}

// PhaseKey identifies one histogram: a phase, split by data center
// where the split is meaningful (DC is -1 for unsplit phases).
type PhaseKey struct {
	Phase Phase
	DC    int8
}

// String renders "vote[dc2]" / "quorum".
func (k PhaseKey) String() string {
	if k.DC < 0 {
		return k.Phase.String()
	}
	return fmt.Sprintf("%s[dc%d]", k.Phase, k.DC)
}

type phaseSet struct {
	mu sync.Mutex
	m  map[PhaseKey]*stats.Histogram
}

// ObservePhase records one latency sample (in nanoseconds, as a
// Duration) for a phase; dc < 0 for phases not split by DC.
func (rec *Recorder) ObservePhase(p Phase, dc int, d time.Duration) {
	if rec == nil {
		return
	}
	if dc > 127 {
		dc = 127
	}
	k := PhaseKey{Phase: p, DC: int8(dc)}
	ps := &rec.phases
	ps.mu.Lock()
	h := ps.m[k]
	if h == nil {
		if ps.m == nil {
			ps.m = make(map[PhaseKey]*stats.Histogram)
		}
		h = stats.NewHistogram(0)
		ps.m[k] = h
	}
	h.Add(int64(d))
	ps.mu.Unlock()
}

// Phases snapshots every histogram, keyed and sorted stably
// (phase order, then DC), for /metrics export and report tables.
func (rec *Recorder) Phases() []PhaseSnapshot {
	if rec == nil {
		return nil
	}
	ps := &rec.phases
	ps.mu.Lock()
	out := make([]PhaseSnapshot, 0, len(ps.m))
	for k, h := range ps.m {
		out = append(out, PhaseSnapshot{Key: k, Hist: h.Clone()})
	}
	ps.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Phase != out[j].Key.Phase {
			return out[i].Key.Phase < out[j].Key.Phase
		}
		return out[i].Key.DC < out[j].Key.DC
	})
	return out
}

// PhaseSnapshot is one exported phase histogram.
type PhaseSnapshot struct {
	Key  PhaseKey
	Hist *stats.Histogram
}
