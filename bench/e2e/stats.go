package main

import (
	"sort"
	"time"
)

// median returns the middle of the samples (mean of the two middle
// ones for an even count); 0 for none. It sorts a copy.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile is the nearest-rank-with-interpolation p'th percentile of
// the samples; it sorts a copy.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// tailCandidates are the percentiles the tail diagnostic may report,
// each with the share of samples that lies beyond it (one in `oneIn`).
var tailCandidates = []struct {
	p     float64
	oneIn int
}{{50, 2}, {90, 10}, {95, 20}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// tailPercentile picks the highest candidate percentile that still has
// at least ten samples beyond it — a p99 over 300 samples would rest on
// three of them — and returns it with its value. With fewer than 100
// samples nothing qualifies past the median.
func tailPercentile(xs []float64) (p, value float64) {
	p = tailCandidates[0].p
	for _, c := range tailCandidates {
		if len(xs) >= 10*c.oneIn {
			p = c.p
		}
	}
	return p, percentile(xs, p)
}

// pacer is an open-loop schedule: op i is due at start + i*interval
// whatever happened to the ops before it, so a stall in the system
// under test shows in the latency of every op that fell due meanwhile
// (no coordinated omission).
type pacer struct {
	start    time.Time
	interval time.Duration
}

func newPacer(perSecond float64) pacer {
	return pacer{start: time.Now(), interval: time.Duration(float64(time.Second) / perSecond)}
}

func (p pacer) due(i int) time.Time { return p.start.Add(time.Duration(i) * p.interval) }

// wait sleeps until op i is due and returns the due time — which
// latencies are measured from — and how late the generator itself is.
func (p pacer) wait(i int) (due time.Time, late time.Duration) {
	due = p.due(i)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	return due, time.Since(due)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
