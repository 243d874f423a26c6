package simnet

import (
	"fmt"
	"math"
	"testing"
	"time"

	"mdcc/internal/transport"
)

// benchNet builds a self-sustaining message mesh: every delivery
// forwards one message, an eighth of the traffic fans into a small
// hot set (deeper queues → the busy-node clamp path), and each node
// keeps a periodic timer armed — the simulator's real workload shape
// (storage mesh + gateway hot spots + protocol timers).
func benchNet(engine string, nodes, inflight int) *Net {
	n := newEngineNet(engine, Options{
		Latency:     func(from, to transport.NodeID) time.Duration { return time.Millisecond },
		JitterFrac:  0.1,
		ServiceTime: 100 * time.Microsecond,
		Seed:        7,
	})
	ids := make([]transport.NodeID, nodes)
	for i := range ids {
		ids[i] = transport.NodeID(fmt.Sprintf("n%04d", i))
	}
	for i := range ids {
		i := i
		id := ids[i]
		n.Register(id, func(e transport.Envelope) {
			p := e.Msg.(ping)
			next := ids[(i*7+p.Seq)%nodes]
			if p.Seq&7 == 0 {
				hot := nodes / 32
				if hot == 0 {
					hot = 1
				}
				next = ids[p.Seq%hot]
			}
			n.Send(id, next, ping{Seq: p.Seq + 1})
		})
		var tick func()
		tick = func() { n.After(id, 750*time.Microsecond, tick) }
		n.After(id, 750*time.Microsecond, tick)
	}
	for i := 0; i < inflight*nodes; i++ {
		n.Send(ids[i%nodes], ids[(i*13+5)%nodes], ping{Seq: i})
	}
	return n
}

func benchSteps(b *testing.B, engine string, nodes, inflight int) {
	n := benchNet(engine, nodes, inflight)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n.step(math.MaxInt64) != stepRan {
			b.Fatal("event queue drained mid-benchmark")
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSimnetStep compares events/sec of the legacy global heap
// against the sharded engine at 10/100/1000 nodes.
func BenchmarkSimnetStep(b *testing.B) {
	for _, nodes := range []int{10, 100, 1000} {
		for _, engine := range []string{"heap", "sharded"} {
			b.Run(fmt.Sprintf("%s/%dnodes", engine, nodes), func(b *testing.B) {
				benchSteps(b, engine, nodes, 8)
			})
		}
	}
}

// BenchmarkSimnet1000Nodes is the headline number: the ≥5x
// events/sec claim at thousand-node scale is heap vs sharded here.
func BenchmarkSimnet1000Nodes(b *testing.B) {
	for _, engine := range []string{"heap", "sharded"} {
		b.Run(engine, func(b *testing.B) {
			benchSteps(b, engine, 1000, 8)
		})
	}
}
