package main

import (
	"lapse/internal/harness"
)

// servingPar is the fixed deployment of the open-loop serving cells. The
// comparison is between read paths at one arrival schedule, not a scaling
// sweep, so one parallelism keeps the cells cheap and the baseline stable.
var servingPar = harness.Parallelism{Nodes: 2, Workers: 2, Shards: 1}

// runServingCells measures the open-loop serving workload once per read path
// (plain batched Pull vs lease-cached MultiGet) at the same arrival schedule.
func runServingCells(quick bool) []Result {
	cfg := harness.ServingWorkload()
	if quick {
		cfg.Requests /= 2
	}
	results := make([]Result, 0, len(harness.ServingModes()))
	for _, mode := range harness.ServingModes() {
		key := cell{Workload: "serving", Mode: string(mode), Nodes: servingPar.Nodes,
			Workers: servingPar.Workers, Shards: servingPar.Shards}
		// In-process runs return no error.
		r, _ := measureCell(key, quick, func() (harness.Window, error) {
			return harness.RunServing(servingPar, cfg, mode), nil
		})
		results = append(results, r)
	}
	return results
}
