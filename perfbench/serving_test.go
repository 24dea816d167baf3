package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// capacity fakes a system that meets a 10 ms limit below cap requests/s.
func capacity(cap float64, measured *[]float64) func(float64) rung {
	return func(rate float64) rung {
		*measured = append(*measured, rate)
		r := rung{rate: rate, p99: 1000}
		if rate >= cap {
			r.p99 = 50_000
		}
		return r
	}
}

func TestSearchRateClimbsThenBisects(t *testing.T) {
	limit := 10 * time.Millisecond
	var measured []float64
	got, rungs := searchRate([]float64{1000, 2000, 4000, 8000}, 2, limit, capacity(3000, &measured))
	// 1000 and 2000 pass, 4000 fails; bisection tries √(2000·4000) ≈ 2828
	// (passes) and then √(2828·4000) ≈ 3364 (fails).
	if want := math.Sqrt(2000 * 4000); math.Abs(got-want) > 1e-6 {
		t.Errorf("max rate = %v, want %v", got, want)
	}
	if len(rungs) != 5 || len(measured) != 5 {
		t.Errorf("measured %v, want 5 rungs", measured)
	}
	if measured[3] >= measured[4] || measured[4] >= 4000 {
		t.Errorf("bisection rates %v not inside (2000, 4000) and rising", measured[3:])
	}
}

func TestSearchRateBacklogFailsARung(t *testing.T) {
	got, _ := searchRate([]float64{1000, 2000}, 3, 10*time.Millisecond, func(rate float64) rung {
		return rung{rate: rate, p99: 1000, backlog: rate > 1500}
	})
	if got <= 1000 || got > 1500 {
		t.Errorf("max rate = %v, want in (1000, 1500]", got)
	}
}

func TestSearchRateEdges(t *testing.T) {
	limit := 10 * time.Millisecond
	var measured []float64
	if got, _ := searchRate([]float64{1000, 2000}, 3, limit, capacity(500, &measured)); got != 0 {
		t.Errorf("first rung failing: max rate %v, want 0", got)
	}
	if !reflect.DeepEqual(measured, []float64{1000}) {
		t.Errorf("measured %v after a failing first rung, want only it", measured)
	}
	measured = nil
	if got, _ := searchRate([]float64{1000, 2000}, 3, limit, capacity(1e9, &measured)); got != 2000 {
		t.Errorf("no rung failing: max rate %v, want the top rung", got)
	}
	if len(measured) != 2 {
		t.Errorf("measured %v with no failure, want no bisection", measured)
	}
}

func TestServeStreamsFollowTheSeed(t *testing.T) {
	cfg := defaultServeConfig()
	a := genServeStreams(cfg, 2, 500, 7)
	b := genServeStreams(cfg, 2, 500, 7)
	c := genServeStreams(cfg, 2, 500, 8)
	if !reflect.DeepEqual(a[0].reqs, b[0].reqs) || !reflect.DeepEqual(a[1].gaps, b[1].gaps) {
		t.Error("the same seed generated different inputs")
	}
	if reflect.DeepEqual(a[0].reqs, c[0].reqs) {
		t.Error("different seeds generated the same requests")
	}
	if reflect.DeepEqual(a[0].reqs, a[1].reqs) {
		t.Error("both workers got the same requests")
	}
	pushes := 0
	for _, r := range a[0].reqs {
		if len(r.keys) != cfg.load.Batch {
			t.Fatalf("request of %d keys, want %d", len(r.keys), cfg.load.Batch)
		}
		if r.push >= 0 {
			pushes++
		}
	}
	if want := 500 / cfg.load.PushEvery; pushes != want {
		t.Errorf("%d writes in 500 requests, want %d", pushes, want)
	}
}
