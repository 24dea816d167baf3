package main

import (
	"math"
	"sort"
	"time"

	"lapse/internal/metrics"
)

// minBeyond is how many samples must lie above a reported percentile: a
// percentile with fewer samples beyond it is a handful of outliers, not a
// tail.
const minBeyond = 10

// tailPercentile returns the highest of the candidate percentiles (ascending
// fractions such as 0.5, 0.9, 0.99) that leaves at least minBeyond of n
// samples above it, or the lowest candidate when none does.
func tailPercentile(n int, candidates ...float64) float64 {
	best := candidates[0]
	for _, q := range candidates {
		if float64(n)*(1-q) >= minBeyond-1e-9 {
			best = q
		}
	}
	return best
}

// quantile returns the q-quantile of sorted by linear interpolation between
// the closest ranks, or 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// median sorts a copy of xs and returns its middle value.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// histUS returns the q-quantile of a program histogram in microseconds, or
// 0 for an empty snapshot.
func histUS(h metrics.HistSnapshot, q float64) float64 {
	return float64(h.Quantile(q)) / 1e3
}

// interval is one half-open span of time [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of [lo, hi) the union of ivs covers. Intervals
// may overlap each other (asynchronous child spans do) and may stick out of
// [lo, hi); only the covered part inside counts, and only once.
func covered(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	curS, curE := int64(0), int64(-1)
	for _, iv := range clipped {
		if iv.start > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = iv.start, iv.end
			continue
		}
		curE = max(curE, iv.end)
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(lo, hi int64, children []interval) time.Duration {
	return time.Duration(hi - lo - covered(lo, hi, children))
}

// failures tallies attempted and failed operations of a run. An operation
// fails when it returns an error, panics, is lost by the transport, or its
// output check fails.
type failures struct {
	attempted int64
	failed    int64
}

func (f *failures) add(attempted, failed int64) {
	f.attempted += attempted
	f.failed += failed
}

// share returns failed ÷ attempted, or 0 when nothing was attempted.
func (f failures) share() float64 {
	if f.attempted == 0 {
		return 0
	}
	return float64(f.failed) / float64(f.attempted)
}

// backlogGrows is the rate ladder's backlog rule: a step's queue is growing
// when, at the instant its last arrival was due, more requests are still
// unfinished than arrive within one latency limit. A system keeping up holds
// about rate × mean sojourn requests in flight, below rate × limit whenever
// its tail meets the limit; one falling behind accumulates
// (rate − capacity) × elapsed, which crosses that line. Requests the
// generator has not issued yet count as unfinished, so a generator that
// cannot keep pace fails the step too.
func backlogGrows(scheduled, completedByEnd int64, rate float64, limit time.Duration) bool {
	return float64(scheduled-completedByEnd) > rate*limit.Seconds()
}
