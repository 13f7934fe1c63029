package wal

import (
	"testing"
	"time"
)

// seq returns the draws in order, cycling — the injected jitter source.
func seq(draws ...float64) func() float64 {
	i := 0
	return func() float64 {
		d := draws[i%len(draws)]
		i++
		return d
	}
}

// redialWith is the redial schedule newOptions builds from opts, drawing
// its jitter from draws.
func redialWith(opts []Option, draws ...float64) backoff {
	b := newOptions(opts).redial
	b.rand = seq(draws...)
	return b
}

// TestFollowerRedialSchedule unit-tests the redial schedule with an
// injected jitter source: full-jitter draws stay inside the doubling
// ceilings, cap at the configured maximum, and restart after a
// progress reset — so a fleet of replicas restarting together spreads
// its redials instead of hammering the leader in lockstep.
func TestFollowerRedialSchedule(t *testing.T) {
	bo := redialWith([]Option{WithRedialBackoff(10*time.Millisecond, 80*time.Millisecond)}, 0.999999)
	ceilings := []time.Duration{10, 20, 40, 80, 80, 80} // ms, doubling then capped
	for i, c := range ceilings {
		got := bo.next()
		ceil := c * time.Millisecond
		if got > ceil || got < ceil-time.Millisecond {
			t.Fatalf("attempt %d: delay %v, want ≈%v", i, got, ceil)
		}
	}
	// Progress resets the schedule to the first ceiling.
	bo.reset()
	if got := bo.next(); got > 10*time.Millisecond {
		t.Fatalf("post-reset delay %v, want ≤ 10ms", got)
	}
}

// TestRedialBackoffFullJitterBounds: with the maximum draw the schedule
// doubles up to the cap; with a zero draw it floors at a millisecond.
func TestRedialBackoffFullJitterBounds(t *testing.T) {
	bo := redialWith([]Option{WithRedialBackoff(50*time.Millisecond, 400*time.Millisecond)}, 0.999999)
	want := []time.Duration{50, 100, 200, 400, 400} // ms ceilings
	for i, w := range want {
		got := bo.next()
		ceil := w * time.Millisecond
		if got > ceil || got < ceil-time.Millisecond {
			t.Fatalf("attempt %d: %v, want ≈%v", i, got, ceil)
		}
	}
	bo.rand = seq(0)
	if got := bo.next(); got != backoffFloor {
		t.Fatalf("zero draw: %v, want the %v floor", got, backoffFloor)
	}
}

// TestRedialBackoffReset rewinds to the first ceiling.
func TestRedialBackoffReset(t *testing.T) {
	bo := redialWith([]Option{WithRedialBackoff(10*time.Millisecond, time.Second)}, 0.5)
	bo.next()
	bo.next()
	bo.next()
	if bo.attempt != 3 {
		t.Fatalf("attempt %d, want 3", bo.attempt)
	}
	bo.reset()
	if got := bo.next(); got != 5*time.Millisecond {
		t.Fatalf("first delay after reset: %v, want 5ms (0.5 × 10ms)", got)
	}
}

// TestFollowerRedialJitterDecorrelates: two followers with different
// draws never sleep the same duration at the same attempt.
func TestFollowerRedialJitterDecorrelates(t *testing.T) {
	a := redialWith(nil, 0.11)
	b := redialWith(nil, 0.83)
	for i := 0; i < 6; i++ {
		if da, db := a.next(), b.next(); da == db {
			t.Fatalf("attempt %d: both replicas slept %v — lockstep redial", i, da)
		}
	}
}

// TestRedialBackoffDecorrelates: two schedules with different draws
// produce different delays at the same attempt — the lockstep-redial fix.
func TestRedialBackoffDecorrelates(t *testing.T) {
	a := redialWith(nil, 0.2)
	b := redialWith(nil, 0.9)
	for i := 0; i < 5; i++ {
		if da, db := a.next(), b.next(); da == db {
			t.Fatalf("attempt %d: both schedules drew %v", i, da)
		}
	}
}

// TestRedialBackoffDefaults: with no option, or with a non-positive base
// or cap, the schedule runs from 50ms to 2s, reaches the cap and never
// exceeds it, and a zero draw waits the floor. A zero ceiling would
// cancel the floor: WithRedialBackoff(0, 0) would redial in a hot loop.
func TestRedialBackoffDefaults(t *testing.T) {
	for _, bc := range [][]time.Duration{nil, {0, 0}, {-time.Second, 0}, {0, -time.Second}} {
		var opts []Option
		if bc != nil {
			opts = append(opts, WithRedialBackoff(bc[0], bc[1]))
		}
		bo := redialWith(opts, 0)
		if d := bo.next(); d < backoffFloor {
			t.Fatalf("WithRedialBackoff%v: zero draw waited %v, want ≥ %v", bc, d, backoffFloor)
		}
		if bo.base != 50*time.Millisecond || bo.cap != 2*time.Second {
			t.Fatalf("WithRedialBackoff%v: base %v cap %v, want 50ms and 2s", bc, bo.base, bo.cap)
		}
		bo.reset()
		bo.rand = seq(0.999999)
		var last time.Duration
		for i := 0; i < 12; i++ {
			last = bo.next()
			if last > bo.cap {
				t.Fatalf("WithRedialBackoff%v: attempt %d exceeded the cap: %v", bc, i, last)
			}
		}
		if last < bo.cap-time.Millisecond {
			t.Fatalf("WithRedialBackoff%v: cap never reached: %v", bc, last)
		}
	}
}

// TestWithRedialBackoffPlumbs: the exported options reach the redial
// schedule and the stall timeout.
func TestWithRedialBackoffPlumbs(t *testing.T) {
	o := newOptions([]Option{
		WithRedialBackoff(7*time.Millisecond, 70*time.Millisecond),
		WithStreamStallTimeout(250 * time.Millisecond),
	})
	if o.redial.base != 7*time.Millisecond || o.redial.cap != 70*time.Millisecond {
		t.Fatalf("redial options did not plumb: %+v", o.redial)
	}
	if o.stallTimeout != 250*time.Millisecond {
		t.Fatalf("stall option did not plumb: %v", o.stallTimeout)
	}
	if d := o.redial.next(); d > 7*time.Millisecond {
		t.Fatalf("first delay %v exceeds the configured 7ms base ceiling", d)
	}
}
