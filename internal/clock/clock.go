// Package clock is kept only because benchmark/ladder.go still imports
// it; the timer handle is transport.Timer. It goes with ROADMAP item 10,
// the change that may edit benchmark/.
package clock

import "mdcc/internal/transport"

// Timer is transport.Timer.
type Timer = transport.Timer
