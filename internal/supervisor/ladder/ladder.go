// Package ladder is the farm's one restart ladder: capped exponential
// backoff with sim-RNG jitter between attempts, behind a sliding-window
// circuit breaker that counts failures. Every supervised component uses
// it — containment servers, sinks and the inmate controller in the
// supervision tree, recycler re-arms, inmate strikes, and raw-iron
// reimage retries — so the schedule and the trip rule live in one place.
//
// A Ladder is plain state with no clock of its own: callers pass the
// owning domain's sim time and RNG, so a (seed, profile) pair replays
// exactly.
package ladder

import "time"

// Rand is the jitter source: the owning domain's sim RNG.
type Rand interface{ Float64() float64 }

// Ladder is one component's backoff schedule and breaker history. Set the
// exported fields once; the zero backoff state starts at Base.
type Ladder struct {
	// Base is the first delay; each Delay doubles it up to Max.
	Base, Max time.Duration
	// Jitter stretches each delay by up to this fraction of itself.
	Jitter float64
	// Threshold failures no older than Window trip the breaker.
	Window    time.Duration
	Threshold int

	backoff time.Duration   // next delay before jitter; 0 means Base
	hits    []time.Duration // failure times, pruned to Window by Tripped
}

// Delay returns the next attempt's delay — the current backoff stretched
// by up to Jitter of itself, with exactly one rng draw — and doubles the
// backoff, capped at Max.
func (l *Ladder) Delay(rng Rand) time.Duration {
	if l.backoff == 0 {
		l.backoff = l.Base
	}
	d := l.backoff
	d += time.Duration(rng.Float64() * l.Jitter * float64(d))
	l.backoff *= 2
	if l.backoff > l.Max {
		l.backoff = l.Max
	}
	return d
}

// ResetBackoff drops the schedule back to Base: the component recovered.
// The breaker history is kept.
func (l *Ladder) ResetBackoff() { l.backoff = 0 }

// Strike records one failure at now.
func (l *Ladder) Strike(now time.Duration) { l.hits = append(l.hits, now) }

// Tripped forgets failures more than Window before now and reports
// whether Threshold or more remain.
func (l *Ladder) Tripped(now time.Duration) bool {
	kept := l.hits[:0]
	for _, t := range l.hits {
		if now-t <= l.Window {
			kept = append(kept, t)
		}
	}
	l.hits = kept
	return len(kept) >= l.Threshold
}

// Load reports how many failures the breaker currently counts (as of the
// last Tripped).
func (l *Ladder) Load() int { return len(l.hits) }

// ResetBreaker forgets every recorded failure: an operator cleared the
// fault.
func (l *Ladder) ResetBreaker() { l.hits = l.hits[:0] }
