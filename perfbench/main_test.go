package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheRegistry(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the registry %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s/%s/%s, registry %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the registry %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s/%s/%s, registry %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
}

func TestMetricsDocCoversEveryMetric(t *testing.T) {
	b, err := os.ReadFile("METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(doc, "`"+d.name+"`") {
			t.Errorf("METRICS.md does not document %s", d.name)
		}
	}
}

func writeReport(t *testing.T, dir, name string, r report) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompareRefusesDifferentRecords(t *testing.T) {
	dir := t.TempDir()
	rec := record{Workload: "kge-pal", Seed: 3, Nodes: 2, Workers: 1, Shards: 2, GOMAXPROCS: 2,
		Transport: "shm", InputHash: "00ff"}
	m := map[string]metricValue{"epoch_s": {Value: 1, Unit: "s"}}
	a := writeReport(t, dir, "a.json", report{Record: rec, Metrics: m})
	same := writeReport(t, dir, "b.json", report{Record: rec, Metrics: m})
	if err := compareReports([]string{a, same}); err != nil {
		t.Errorf("equal records refused: %v", err)
	}
	for name, change := range map[string]func(*record){
		"seed":       func(r *record) { r.Seed = 4 },
		"shards":     func(r *record) { r.Shards = 1 },
		"gomaxprocs": func(r *record) { r.GOMAXPROCS = 4 },
		"transport":  func(r *record) { r.Transport = "tcp" },
		"inputs":     func(r *record) { r.InputHash = "0100" },
	} {
		other := rec
		change(&other)
		p := writeReport(t, dir, name+".json", report{Record: other, Metrics: m})
		if err := compareReports([]string{a, p}); err == nil {
			t.Errorf("reports differing in %s compared", name)
		}
	}
}

func TestCompareFlagsDifferentHosts(t *testing.T) {
	dir := t.TempDir()
	rec := record{Workload: "w2v-adaptive", Seed: 3, Transport: "tcp"}
	m := map[string]metricValue{"epoch_s": {Value: 1, Unit: "s"}}
	host := hostState{StealShare: 0.002, CacheProbeMS: 10, RTTP50US: 40}
	a := writeReport(t, dir, "a.json", report{Record: rec, Host: host, Metrics: m})
	near := host
	near.StealShare, near.CacheProbeMS, near.RTTP50US = 0.009, 11.4, 58
	if err := compareReports([]string{a, writeReport(t, dir, "near.json", report{Record: rec, Host: near, Metrics: m})}); err != nil {
		t.Errorf("hosts within the thresholds flagged: %v", err)
	}
	unknown := near
	unknown.StealShare = -1
	if err := compareReports([]string{a, writeReport(t, dir, "unknown.json", report{Record: rec, Host: unknown, Metrics: m})}); err != nil {
		t.Errorf("unknown steal share flagged: %v", err)
	}
	for name, change := range map[string]func(*hostState){
		"steal": func(h *hostState) { h.StealShare = 0.034 },
		"probe": func(h *hostState) { h.CacheProbeMS = 12 },
		"rtt":   func(h *hostState) { h.RTTP50US = 61 },
	} {
		other := host
		change(&other)
		p := writeReport(t, dir, name+".json", report{Record: rec, Host: other, Metrics: m})
		if err := compareReports([]string{a, p}); err == nil || !strings.Contains(err.Error(), "hosts differed") {
			t.Errorf("hosts differing in %s not flagged: %v", name, err)
		}
	}
}

// TestWorkloadsRunAndReportEveryMetric runs every workload briefly, untraced
// and traced, and checks that each reports all its metrics and passes its
// output checks.
func TestWorkloadsRunAndReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			o := runOpts{seed: 11, seconds: 1, trace: trace, outDir: t.TempDir()}
			out, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if len(out.checks) != 0 {
				t.Errorf("%s trace=%v: failed checks %v", name, trace, out.checks)
			}
			if out.fails.attempted == 0 {
				t.Errorf("%s trace=%v: nothing attempted", name, trace)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				if _, ok := out.values[d.name]; !ok {
					t.Errorf("%s trace=%v: %s missing", name, trace, d.name)
				}
			}
			for _, d := range endToEnd {
				if v := out.values[d.name]; !trace && v <= 0 {
					t.Errorf("%s: %s = %v, want > 0", name, d.name, v)
				}
			}
			if out.rec.Transport == "" || out.rec.Shards < 1 {
				t.Errorf("%s trace=%v: record %+v incomplete", name, trace, out.rec)
			}
		}
	}
}
