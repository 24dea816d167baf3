package main

import (
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0.5},     // too few for any tail: fall back to the median
		{19, 0.5},    // 9.5 beyond the median is not ten
		{20, 0.5},    // 2 beyond p90 is not ten, 10 beyond the median is
		{100, 0.9},   // exactly ten beyond p90
		{999, 0.9},   // 9.99 beyond p99 is not ten
		{1000, 0.99}, // exactly ten beyond p99
		{1e6, 0.99},  // never beyond the highest candidate
	} {
		if got := tailPercentile(tc.n, 0.5, 0.9, 0.99); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median unsorted = %v, want 2", got)
	}
}

func TestSelfTimeWithOverlappingAsyncChildren(t *testing.T) {
	// Epoch [0, 100). Two asynchronous children overlap each other
	// ([10, 40) and [30, 60)); a third sticks out past the epoch's end
	// ([90, 120)); one lies wholly outside ([200, 210)).
	children := []interval{{10, 40}, {30, 60}, {90, 120}, {200, 210}}
	// Covered: [10, 60) = 50 plus [90, 100) = 10.
	if got := covered(0, 100, children); got != 60 {
		t.Fatalf("covered = %d, want 60", got)
	}
	if got := selfTime(0, 100, children); got != 40 {
		t.Errorf("self time = %d, want 40", got)
	}
	// A child nested inside another counts once.
	if got := selfTime(0, 100, []interval{{10, 90}, {20, 30}}); got != 20 {
		t.Errorf("nested self time = %d, want 20", got)
	}
	if got := selfTime(0, 100, nil); got != 100 {
		t.Errorf("childless self time = %d, want 100", got)
	}
}

func TestEpochSelfTimesFromSpans(t *testing.T) {
	spans := []span{
		{id: 1, kind: kindEpoch, start: 0, end: 1000},
		{parent: 1, kind: callLocalizeAsync, start: 100, end: 150},
		{parent: 1, kind: callPull, start: 140, end: 400}, // overlaps the localize span
		{parent: 1, kind: callBarrier, start: 900, end: 1000},
		{id: 2, kind: kindEpoch, start: 0, end: 500},
		{parent: 2, kind: callPull, start: 0, end: 500},
		{parent: 3, kind: callPull, start: 0, end: 999}, // another epoch's child
	}
	got := epochSelfTimes(spans)
	if len(got) != 2 || got[0] != 600 || got[1] != 0 {
		t.Errorf("self times = %v, want [600 0]", got)
	}
}

func TestSummariseCalls(t *testing.T) {
	var spans []span
	for i := int64(0); i < 10; i++ {
		spans = append(spans, span{kind: callPull, start: 0, end: (i + 1) * 1000})
	}
	spans = append(spans, span{kind: kindEpoch, start: 0, end: 1e9})
	c := summariseCalls(spans)
	if c[callPull].calls != 10 || c[callPull].busy != 55*time.Microsecond {
		t.Errorf("pull calls %d busy %v, want 10 and 55µs", c[callPull].calls, c[callPull].busy)
	}
	if c[callPull].p50 != 5.5 {
		t.Errorf("pull p50 = %v µs, want 5.5", c[callPull].p50)
	}
	if c[callPush].calls != 0 || c[callPush].p50 != 0 {
		t.Errorf("push = %+v, want empty", c[callPush])
	}
}

func TestFailedShareAccounting(t *testing.T) {
	var f failures
	if f.share() != 0 {
		t.Errorf("nothing attempted: share %v, want 0", f.share())
	}
	f.add(1000, 0) // a clean session
	f.add(400, 1)  // one failed ReadParameter
	f.add(600, 3)  // three lost messages
	if f.attempted != 2000 || f.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 2000 and 4", f.attempted, f.failed)
	}
	if got := f.share(); got != 0.002 {
		t.Errorf("share = %v, want 0.002", got)
	}
}

func TestBacklogRule(t *testing.T) {
	limit := 10 * time.Millisecond
	// At 10k/s, 100 requests arrive within one limit.
	if backlogGrows(50_000, 49_950, 10_000, limit) {
		t.Error("50 unfinished of a keeping-up rung flagged as backlog")
	}
	if backlogGrows(50_000, 49_900, 10_000, limit) {
		t.Error("exactly one limit's worth of arrivals flagged as backlog")
	}
	if !backlogGrows(50_000, 49_899, 10_000, limit) {
		t.Error("more than one limit's worth of arrivals unfinished not flagged")
	}
	// A generator that could issue only half its schedule leaves the rest
	// unfinished too.
	if !backlogGrows(50_000, 25_000, 10_000, limit) {
		t.Error("half the schedule unfinished not flagged")
	}
}

func TestNoteTransportFailsAMixedRun(t *testing.T) {
	var o outcome
	o.noteTransport("shm")
	o.noteTransport("shm")
	if o.rec.Transport != "shm" || len(o.checks) != 0 || o.fails.failed != 0 {
		t.Fatalf("same transport twice: record %q, checks %v, failed %d", o.rec.Transport, o.checks, o.fails.failed)
	}
	o.noteTransport("tcp")
	if o.rec.Transport != "shm" || len(o.checks) != 1 || o.fails.failed != 1 {
		t.Errorf("fallback to tcp: record %q, checks %v, failed %d; want shm kept and one failed check",
			o.rec.Transport, o.checks, o.fails.failed)
	}
}
