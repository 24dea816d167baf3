// Command perfbench is the repository's benchmark. It runs one workload
// against Lapse in a single process (2 nodes × 1 worker over the real
// message path, shared-memory rings or loopback TCP), checks the outputs,
// and prints its metrics; the last line of standard output is a JSON
// object with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload kge-pal --seed 1 --seconds 20 --trace 0
//
// Workloads: kge-pal (KGE training with data clustering and lookahead
// localization), w2v-adaptive (word2vec training under the adaptive
// controller) and serve-lease (open-loop MultiGet reads over the lease
// tier). --trace 0 reports the end-to-end metrics; --trace 1 runs the
// workload traced and reports per-layer metrics, writing the spans to a
// file. --compare a.json b.json compares two saved reports and refuses
// reports whose records (seed, shards, GOMAXPROCS, transport, inputs)
// differ, and flags reports whose hosts differed (hypervisor steal, a fixed
// cache probe, an idle transport ping-pong). METRICS.md documents every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// record identifies what a report measured; two reports are comparable
// only when their records are equal.
type record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Nodes      int    `json:"nodes"`
	Workers    int    `json:"workers_per_node"`
	Shards     int    `json:"shards"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Transport  string `json:"transport"`
	InputHash  string `json:"input_hash"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's full outcome, saved next to the build outputs.
type report struct {
	Record    record                 `json:"record"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Checks    []string               `json:"failed_checks,omitempty"`
	Host      hostState              `json:"host"`
	Diag      map[string]float64     `json:"diagnostics,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	SpanFile  string                 `json:"span_file,omitempty"`
}

// runOpts are a run's command-line settings.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
}

// outcome is what a workload runner hands back.
type outcome struct {
	rec    record
	fails  failures
	checks []string // failed output checks
	values map[string]float64
	spans  *tracer
	probes []float64 // cache probe times between sessions, ms
	// diag holds counters an untraced run saves in its report beside the
	// metrics, to tell a change in the work done from one in its speed.
	diag map[string]float64
}

var workloads = map[string]func(runOpts) (*outcome, error){
	"kge-pal":      func(o runOpts) (*outcome, error) { return runTraining("kge-pal", kgeSpec(o.seed), o) },
	"w2v-adaptive": func(o runOpts) (*outcome, error) { return runTraining("w2v-adaptive", w2vSpec(o.seed), o) },
	"serve-lease":  runServe,
}

func main() {
	workload := flag.String("workload", "", "workload to run: kge-pal, w2v-adaptive or serve-lease")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 30, "length of the measurement")
	trace := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics, 0 end-to-end metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "out"), "directory for reports, span files and ring files")
	compare := flag.Bool("compare", false, "compare the two report files given as arguments")
	flag.Parse()

	if *compare {
		if err := compareReports(flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (kge-pal, w2v-adaptive, serve-lease), --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o := runOpts{seed: *seed, seconds: float64(*seconds), trace: *trace == 1, outDir: *outDir}
	out, host, err := measureHost(o.outDir, func() (*outcome, error) { return run(o) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, err := finish(*workload, o, out, host)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(last))
	if !rep.Correct {
		os.Exit(1)
	}
}

// finish completes the record, prints every metric by name and unit, and
// saves the report (and the spans of a traced run).
func finish(workload string, o runOpts, out *outcome, host hostState) (*report, error) {
	out.rec.Workload = workload
	out.rec.Seed = o.seed
	out.rec.Trace = o.trace
	out.rec.GOMAXPROCS = runtime.GOMAXPROCS(0)
	defs := endToEnd
	if o.trace {
		defs = perLayer
		out.values["failed_share"] = out.fails.share()
	}
	for _, d := range defs {
		if v, ok := out.values[d.name]; ok && (math.IsNaN(v) || math.IsInf(v, 0)) {
			out.checks = append(out.checks, fmt.Sprintf("%s is %v", d.name, v))
			out.values[d.name] = 0
		}
	}
	rep := &report{Record: out.rec, Correct: len(out.checks) == 0, Attempted: max(out.fails.attempted, 1),
		Failed: out.fails.failed, Checks: out.checks, Host: host, Diag: out.diag, Metrics: map[string]metricValue{}}
	recJSON, _ := json.Marshal(rep.Record)
	fmt.Printf("record %s\n", recJSON)
	hostJSON, _ := json.Marshal(rep.Host)
	fmt.Printf("host %s\n", hostJSON)
	diag := make([]string, 0, len(rep.Diag))
	for n := range rep.Diag {
		diag = append(diag, n)
	}
	sort.Strings(diag)
	for _, n := range diag {
		fmt.Printf("diagnostic %-34s %14.6g\n", n, rep.Diag[n])
	}
	for _, c := range out.checks {
		fmt.Printf("FAILED CHECK %s\n", c)
	}
	fmt.Printf("operations attempted %d failed %d\n", rep.Attempted, rep.Failed)
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("%-34s %14.6g %s\n", d.name, v, d.unit)
	}
	base := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace%d", workload, o.seed, btoi(o.trace)))
	if out.spans != nil {
		n, err := out.spans.write(base + ".spans.tsv")
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		rep.SpanFile = base + ".spans.tsv"
		fmt.Printf("spans %d written to %s\n", n, rep.SpanFile)
	}
	js, _ := json.MarshalIndent(rep, "", "  ")
	if err := os.WriteFile(base+".json", js, 0o644); err != nil {
		return nil, fmt.Errorf("write report: %w", err)
	}
	fmt.Printf("report written to %s.json\n", base)
	return rep, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// compareReports prints, per metric, the second report's value over the
// first's. Reports whose records differ measured different things and are
// refused; reports whose hosts differ are printed and then flagged with an
// error.
func compareReports(paths []string) error {
	if len(paths) != 2 {
		return errors.New("--compare needs two report files")
	}
	var reps [2]report
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &reps[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if reps[0].Record != reps[1].Record {
		a, _ := json.Marshal(reps[0].Record)
		b, _ := json.Marshal(reps[1].Record)
		return fmt.Errorf("records differ, refusing to compare:\n  %s\n  %s", a, b)
	}
	names := make([]string, 0, len(reps[0].Metrics))
	for n := range reps[0].Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a, b := reps[0].Metrics[n], reps[1].Metrics[n]
		ratio := "-"
		if a.Value != 0 {
			ratio = strconv.FormatFloat(b.Value/a.Value, 'f', 3, 64)
		}
		fmt.Printf("%-34s %14.6g %14.6g %8s %s\n", n, a.Value, b.Value, ratio, a.Unit)
	}
	if diff := reps[0].Host.differs(reps[1].Host); diff != "" {
		return fmt.Errorf("the hosts differed (%s), so the ratios above mix a change of the program with one of the machine", diff)
	}
	return nil
}

// inputHash fingerprints generated inputs.
type inputHash struct{ h hash.Hash64 }

func newInputHash() *inputHash { return &inputHash{h: fnv.New64a()} }

func (h *inputHash) ints(xs ...int64) {
	var b [8]byte
	for _, x := range xs {
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.h.Write(b[:])
	}
}

func (h *inputHash) sum() string { return fmt.Sprintf("%016x", h.h.Sum64()) }
