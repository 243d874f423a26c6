// Package clock is what is left of the time abstraction: the handle
// transport.Network.After returns. Scheduling belongs to the network
// (internal/simnet runs callbacks on its virtual event loop, the
// real-time transports on time.AfterFunc), so there is no Clock to
// implement. Timer keeps its own package because every Network
// implementation names it in After's signature — simnet, the gateway's
// batcher and benchmark/'s traced wrapper among them.
package clock

// Timer is a cancellable pending callback. *time.Timer satisfies it.
type Timer interface {
	// Stop cancels the timer. It reports whether the callback was
	// prevented from running (false if it already ran or was stopped).
	Stop() bool
}
