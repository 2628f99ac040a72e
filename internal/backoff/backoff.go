// Package backoff is the one exponential-backoff implementation shared by
// every retry surface in the tree: the fault injector's drop-streak delays
// (internal/faults), the solver daemon's transient-failure retries
// (internal/service), and the TCP node's dial/reconnect loop
// (internal/netrun).
//
// A Policy is a pure value — no goroutines, no clocks, no PRNG state — so
// callers that need determinism (the fault injector, the reliable-transport
// state machines) get it for free, and callers that need jitter (reconnect
// storms after a hub restart) get it from a hash of (seed, attempt) rather
// than shared mutable randomness, keeping same-seed runs bit-identical.
package backoff

import "time"

// Policy describes an exponential-backoff schedule: Base doubles per
// attempt up to Cap.
type Policy struct {
	// Base is the delay before the first retry (attempt 0). It must be
	// positive for the schedule to make sense; Delay returns 0 otherwise.
	Base time.Duration
	// Cap bounds the delay; 0 means uncapped (pure doubling).
	Cap time.Duration
}

// Delay returns the backoff delay after attempt consecutive failures:
// min(Base << attempt, Cap), overflow-safe. attempt 0 is the first retry.
func (p Policy) Delay(attempt int) time.Duration {
	if p.Base <= 0 {
		return 0
	}
	if attempt < 0 {
		attempt = 0
	}
	d := p.Base
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= p.Cap && p.Cap > 0 {
			return p.Cap
		}
		if d <= 0 { // overflow past the int64 range
			if p.Cap > 0 {
				return p.Cap
			}
			return 1<<63 - 1
		}
	}
	if p.Cap > 0 && d > p.Cap {
		return p.Cap
	}
	return d
}

// Jittered returns Delay(attempt) scaled by a deterministic factor in
// [1/2, 1), hashed from (seed, attempt). Different seeds (one per
// reconnecting node, say) decorrelate their retry schedules without any
// shared PRNG, so a fleet of workers severed by the same hub restart does
// not dial back in lockstep — while the same (seed, attempt) pair always
// yields the same delay, keeping chaos runs reproducible.
func (p Policy) Jittered(attempt int, seed int64) time.Duration {
	d := p.Delay(attempt)
	if d <= 1 {
		return d
	}
	h := mix(uint64(seed)<<32 ^ uint64(uint32(attempt)) ^ 0x9e3779b97f4a7c15)
	// Map the top 53 bits to [0.5, 1.0).
	frac := 0.5 + 0.5*float64(h>>11)/(1<<53)
	return time.Duration(float64(d) * frac)
}

// mix is the splitmix64 finalizer — the same hash family the fault
// injector uses for its per-event decisions.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
