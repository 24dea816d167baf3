package main

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lapse/internal/harness"
	"lapse/internal/transport/shm"
)

// TestMain lets the test binary stand in for the lapse-bench binary when the
// multi-process sweep re-executes os.Executable() as a cell child.
func TestMain(m *testing.M) {
	if spec := os.Getenv(mpChildEnv); spec != "" {
		os.Exit(runChildNode(spec))
	}
	os.Exit(m.Run())
}

// TestQuickBenchWritesReport runs the quick sweep end to end — including the
// multi-process transport cells, with this test binary re-executed as the
// node children — and validates the BENCH_<rev>.json schema CI archives.
func TestQuickBenchWritesReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick sweep with subprocesses")
	}
	// uniform and zipf sweep shards {1,4}; w2vneg runs single-shard; the
	// open-loop serving comparison adds one cell per read path; the
	// multi-process transport sweep adds modes × transports cells.
	report := run(true, "test")
	want := (2*2+1)*1*len(harness.HotKeyModes()) + len(harness.ServingModes()) +
		len(mpModes())*len(mpTransports())
	if len(report.Results) != want {
		t.Fatalf("quick sweep produced %d results, want %d", len(report.Results), want)
	}
	var transports []string
	for _, r := range report.Results {
		if r.Transport != "" {
			transports = append(transports, r.Transport)
			if r.Workload != "zipf" || r.Nodes != mpNodes || r.Shards != mpShards {
				t.Fatalf("unexpected multi-process cell: %+v", r)
			}
		}
	}
	if len(transports) != len(mpModes())*len(mpTransports()) {
		t.Fatalf("multi-process cells = %v, want %d per transport of %v",
			transports, len(mpModes()), mpTransports())
	}
	// -compare skips unmatched cells by design, so pin the sweep's shape
	// here: with both transports available, the quick report must hold
	// exactly the committed baseline's cells.
	if shm.Supported() {
		data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_baseline.json"))
		if err != nil {
			t.Fatal(err)
		}
		var baseline Report
		if err := json.Unmarshal(data, &baseline); err != nil {
			t.Fatal(err)
		}
		cells := func(rs []Result) map[cell]bool {
			set := make(map[cell]bool, len(rs))
			for _, r := range rs {
				set[r.cell()] = true
			}
			return set
		}
		if got, want := cells(report.Results), cells(baseline.Results); !maps.Equal(got, want) {
			t.Fatalf("quick report cells differ from BENCH_baseline.json:\n got  %v\n want %v", got, want)
		}
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_test.json")
	if err := write(report, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if got.Rev != "test" || !got.Quick {
		t.Fatalf("report header = rev %q quick %v", got.Rev, got.Quick)
	}
	var sawReplication bool
	for _, r := range got.Results {
		if r.Ops <= 0 || r.Seconds <= 0 || r.Throughput <= 0 {
			t.Fatalf("degenerate result: %+v", r)
		}
		if r.Mode == "replication" {
			sawReplication = true
			if r.Workload != "uniform" && r.ReplicaHits == 0 {
				t.Fatalf("skewed replication run recorded no replica hits: %+v", r)
			}
		}
	}
	if !sawReplication {
		t.Fatal("no replication-mode results in the report")
	}
	// The headline: on the skewed workloads, replication needs far fewer
	// remote reads than relocation-only management.
	byKey := map[string]Result{}
	for _, r := range got.Results {
		byKey[r.Workload+"/"+r.Mode] = r
	}
	base, repl := byKey["w2vneg/relocation"], byKey["w2vneg/replication"]
	if repl.RemoteReads*2 > base.RemoteReads {
		t.Fatalf("w2vneg remote reads: replication %d vs relocation %d, expected a clear win",
			repl.RemoteReads, base.RemoteReads)
	}
	// The serving headline: at the same open-loop arrival schedule, the
	// lease-cached MultiGet path must hold p99 sojourn at least 2x below
	// plain batched Pull, and must actually serve from the cache.
	sPull, sMG := byKey["serving/pull"], byKey["serving/multiget"]
	if sPull.PullP99Ns == 0 || sMG.PullP99Ns == 0 {
		t.Fatalf("serving cells carry no sojourn quantiles: pull %+v multiget %+v", sPull, sMG)
	}
	if sMG.PullP99Ns*2 > sPull.PullP99Ns {
		t.Fatalf("serving p99 sojourn: multiget %v vs pull %v, want at least a 2x win",
			time.Duration(sMG.PullP99Ns), time.Duration(sPull.PullP99Ns))
	}
	if sMG.ServingHits == 0 || sMG.LeaseGrants == 0 {
		t.Fatalf("serving/multiget cell records no cache activity: %+v", sMG)
	}
}

// TestCompareFlagsRegressions pins the -compare contract: a report compared
// against itself passes, a >20% throughput drop against the baseline fails
// and names the cell, and unmatched cells are ignored.
func TestCompareFlagsRegressions(t *testing.T) {
	mk := func(workload string, shards int, throughput float64) Result {
		return Result{Workload: workload, Mode: "relocation", Nodes: 2, Workers: 2,
			Shards: shards, Ops: 100, Seconds: 1, Throughput: throughput}
	}
	dir := t.TempDir()
	baseline := Report{Rev: "base", Results: []Result{
		mk("uniform", 1, 1000),
		mk("uniform", 4, 2000),
		mk("removed", 1, 9999), // only in baseline: must be ignored
	}}
	path := filepath.Join(dir, "BENCH_base.json")
	if err := write(baseline, path); err != nil {
		t.Fatal(err)
	}

	same := Report{Rev: "cur", Results: baseline.Results[:2]}
	if err := compare(same, path); err != nil {
		t.Fatalf("identical report flagged as regression: %v", err)
	}
	within := Report{Rev: "cur", Results: []Result{mk("uniform", 1, 850), mk("uniform", 4, 1700)}}
	if err := compare(within, path); err != nil {
		t.Fatalf("15%% drop flagged as regression: %v", err)
	}
	regressed := Report{Rev: "cur", Results: []Result{mk("uniform", 1, 1000), mk("uniform", 4, 1000)}}
	err := compare(regressed, path)
	if err == nil {
		t.Fatal("50% drop passed the comparison")
	}
	if !strings.Contains(err.Error(), "uniform") || !strings.Contains(err.Error(), "2x2s4") {
		t.Fatalf("regression error does not name the cell: %v", err)
	}
	// A baseline with no matching cells is an error, not a silent pass.
	if err := compare(Report{Rev: "cur", Results: []Result{mk("other", 1, 1)}}, path); err == nil {
		t.Fatal("comparison with zero matched cells passed")
	}
}

// TestCompareReportsAllFailingCells pins that -compare accumulates every
// regressed cell into one error instead of stopping at the first: a run
// where several cells regress — across different metrics — must name each
// one, so a CI failure shows the whole blast radius at once.
func TestCompareReportsAllFailingCells(t *testing.T) {
	mk := func(workload string, throughput, allocs float64, p99 int64) Result {
		return Result{Workload: workload, Mode: "relocation", Nodes: 2, Workers: 2,
			Shards: 1, Ops: 100, Seconds: 1, Throughput: throughput,
			AllocsPerOp: allocs, PullP99Ns: p99}
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_base.json")
	baseline := Report{Rev: "base", Results: []Result{
		mk("uniform", 1000, 10, 100_000),
		mk("zipf", 2000, 10, 100_000),
		mk("serving", 3000, 10, 100_000),
	}}
	if err := write(baseline, path); err != nil {
		t.Fatal(err)
	}
	// Three distinct regressions: a throughput drop, an alloc blow-up, and
	// a p99 latency blow-up, one per cell.
	cur := Report{Rev: "cur", Results: []Result{
		mk("uniform", 500, 10, 100_000),
		mk("zipf", 2000, 40, 100_000),
		mk("serving", 3000, 10, 400_000),
	}}
	err := compare(cur, path)
	if err == nil {
		t.Fatal("three-way regression passed the comparison")
	}
	for _, cell := range []string{"uniform", "zipf", "serving"} {
		if !strings.Contains(err.Error(), cell) {
			t.Fatalf("comparison error does not name regressed cell %q:\n%v", cell, err)
		}
	}
	for _, metric := range []string{"ops/s", "allocs/op", "p99"} {
		if !strings.Contains(err.Error(), metric) {
			t.Fatalf("comparison error does not name regressed metric %q:\n%v", metric, err)
		}
	}
}

// TestCompareFlagsAllocRegressions pins the allocs/op gate: cells within the
// 20%+slack envelope pass, a clear allocation regression fails and names the
// cell, and baselines without the allocs column skip the gate.
func TestCompareFlagsAllocRegressions(t *testing.T) {
	mk := func(throughput, allocs float64) Result {
		return Result{Workload: "uniform", Mode: "relocation", Nodes: 2, Workers: 2,
			Shards: 1, Ops: 100, Seconds: 1, Throughput: throughput, AllocsPerOp: allocs}
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_base.json")
	if err := write(Report{Rev: "base", Results: []Result{mk(1000, 10)}}, path); err != nil {
		t.Fatal(err)
	}
	// 10 → 13 allocs/op stays within 20% + 2 slack.
	if err := compare(Report{Rev: "cur", Results: []Result{mk(1000, 13)}}, path); err != nil {
		t.Fatalf("in-envelope alloc increase flagged: %v", err)
	}
	err := compare(Report{Rev: "cur", Results: []Result{mk(1000, 20)}}, path)
	if err == nil {
		t.Fatal("doubled allocs/op passed the comparison")
	}
	if !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("alloc regression error does not name the metric: %v", err)
	}
	// Old baselines without the column (all cells zero) skip the gate.
	if err := write(Report{Rev: "base", Results: []Result{mk(1000, 0)}}, path); err != nil {
		t.Fatal(err)
	}
	if err := compare(Report{Rev: "cur", Results: []Result{mk(1000, 50)}}, path); err != nil {
		t.Fatalf("pre-column baseline tripped the alloc gate: %v", err)
	}
	// But a true-zero cell in a baseline that has the column stays gated.
	mkCell := func(workload string, allocs float64) Result {
		r := mk(1000, allocs)
		r.Workload = workload
		return r
	}
	if err := write(Report{Rev: "base", Results: []Result{mkCell("uniform", 4), mkCell("zipf", 0)}}, path); err != nil {
		t.Fatal(err)
	}
	err = compare(Report{Rev: "cur", Results: []Result{mkCell("uniform", 4), mkCell("zipf", 50)}}, path)
	if err == nil || !strings.Contains(err.Error(), "zipf") {
		t.Fatalf("regression against a true-zero allocs baseline cell not flagged: %v", err)
	}
}
