//go:build !linux

package transport

import "time"

// deliveryClock is Linux-only (local_clock_linux.go); elsewhere
// startDeliveryClock returns nil and Local gives each delayed message
// its own runtime timer.
type deliveryClock struct{}

func startDeliveryClock(*Local) *deliveryClock { return nil }

func (*deliveryClock) push(Envelope, time.Duration) {}

func (*deliveryClock) stop() {}
