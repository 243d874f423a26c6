package mdcc

import (
	"mdcc/internal/core"
	"mdcc/internal/gateway"
	"mdcc/internal/record"
)

// GatewayMetrics is a gateway's operational snapshot: outcome counts,
// coalesce ratio, admission queue depth, batch fan-in.
type GatewayMetrics = gateway.Metrics

// Gateway is a DC-local transaction gateway: many client sessions
// attach to it instead of owning private coordinators. It runs every
// transaction on one coordinator, batches outbound protocol messages
// across transactions, coalesces commutative updates to hot keys into
// merged options, and applies admission control. See Cluster.Gateway.
type Gateway struct {
	dc  DC
	gw  *gateway.Gateway
	cfg core.Config
}

// Session opens a client session backed by this gateway. Gateway
// sessions share its coordinator; their transactions may be
// batched and (when commutative and single-update) coalesced with
// other sessions' transactions.
func (g *Gateway) Session() *Session {
	s := newSession(gatewayBackend{gw: g.gw}, g.cfg)
	s.gwMetrics = g.gw.Metrics
	return s
}

// Metrics snapshots the gateway's operational counters.
func (g *Gateway) Metrics() GatewayMetrics { return g.gw.Metrics() }

// DC returns the gateway's data center.
func (g *Gateway) DC() DC { return g.dc }

// gatewayBackend adapts a gateway to the Session backend.
type gatewayBackend struct {
	gw *gateway.Gateway
}

func (b gatewayBackend) Read(key Key, floor Version, cb func(record.Value, record.Version, bool)) {
	b.gw.ReadFloor(key, floor, cb)
}

func (b gatewayBackend) ReadQuorum(key Key, cb func(record.Value, record.Version, bool)) {
	b.gw.ReadQuorum(key, cb)
}

func (b gatewayBackend) Commit(updates []Update, done func(bool, error)) {
	b.gw.Commit(updates, done)
}

// Metrics reports only the gateway-level outcome counters live; the
// coordinator's protocol internals are read when quiesced via
// Gateway.Metrics / scenario harnesses.
func (b gatewayBackend) Metrics() core.CoordMetrics {
	m := b.gw.Metrics()
	return core.CoordMetrics{Commits: m.Commits, Aborts: m.Aborts}
}
