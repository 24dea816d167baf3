package harness

import (
	"runtime"
	"sync"
	"time"

	"lapse/internal/cluster"
	"lapse/internal/driver"
	"lapse/internal/metrics"
	"lapse/internal/transport"
)

// Window is one measured run of a harness workload (hot-key or serving): the
// span between two cluster-wide barriers, with every counter taken as a delta
// across it so the warmup traffic before the first barrier is excluded.
type Window struct {
	Par  Parallelism
	Mode string
	// Elapsed is the wall-clock span from the opening barrier to the closing
	// one. For the open-loop serving workload that is the first scheduled
	// arrival to the last completion, so in overload it exceeds the
	// scheduled span.
	Elapsed time.Duration
	// Ops counts the whole cluster's operations — key accesses or read
	// requests — so with the barrier-aligned window Throughput is the
	// cluster-wide rate.
	Ops int64
	// Allocs and AllocBytes are the process-wide heap allocation deltas
	// (runtime.MemStats Mallocs / TotalAlloc) across the window — the
	// GC-pressure trajectory of the message path.
	Allocs     int64
	AllocBytes int64
	// Stats carries the server-counter totals of the window; Net the
	// transport traffic counters.
	Stats metrics.Totals
	Net   transport.Stats
	// Lat is the end-to-end operation-latency snapshot of the window, merged
	// over this process's workers.
	Lat metrics.LatencySnapshot
	// Sojourn is the distribution of completion-minus-scheduled-arrival over
	// this process's read requests; empty for closed-loop workloads.
	Sojourn metrics.HistSnapshot
}

// Throughput returns operations per second of wall-clock time.
func (w Window) Throughput() float64 {
	if w.Elapsed <= 0 {
		return 0
	}
	return float64(w.Ops) / w.Elapsed.Seconds()
}

// AllocsPerOp returns heap allocations per operation.
func (w Window) AllocsPerOp() float64 {
	if w.Ops <= 0 {
		return 0
	}
	return float64(w.Allocs) / float64(w.Ops)
}

// BytesPerOp returns heap bytes allocated per operation.
func (w Window) BytesPerOp() float64 {
	if w.Ops <= 0 {
		return 0
	}
	return float64(w.AllocBytes) / float64(w.Ops)
}

// measure runs one measured window over this process's share of a cluster
// that may span OS processes. Each worker first runs warm unmeasured; a
// cluster-wide barrier opens the window, the first worker past it takes the
// counter, traffic, latency, and MemStats baselines and the start instant
// that every worker of this process receives (the open-loop workload paces
// its arrivals off it), and each worker then runs its measured share, which
// drains its in-flight operations and may return a sojourn histogram. A
// second barrier closes the window. ops is the cluster-wide operation count;
// Stats, allocation deltas, Net, Lat, and Sojourn cover only this process.
func measure(par Parallelism, cl *cluster.Cluster, ps driver.PS, mode string, ops int64,
	warm func(worker int), run func(worker int, start time.Time) metrics.HistSnapshot) Window {
	b := cl.Barrier()
	var (
		mu            sync.Mutex
		before, after runtime.MemStats
		start         time.Time
		elapsed       time.Duration
		statsBase     metrics.Totals
		netBase       transport.Stats
		latBase       metrics.LatencySnapshot
		sojourn       metrics.HistSnapshot
	)
	cl.RunWorkers(func(node, worker int) {
		warm(worker)
		b.Wait(node)
		mu.Lock()
		if start.IsZero() {
			// Counter baselines exclude the warmup traffic from the
			// reported window (snapshot is racy against workers already
			// past the barrier by at most a few operations).
			statsBase = metrics.Sum(ps.Stats())
			netBase = cl.Net().Stats()
			latBase = ps.Latencies()
			runtime.ReadMemStats(&before)
			start = time.Now()
		}
		base := start
		mu.Unlock()
		hist := run(worker, base)
		b.Wait(node)
		mu.Lock()
		if elapsed == 0 {
			elapsed = time.Since(base)
			runtime.ReadMemStats(&after)
		}
		sojourn.Merge(hist)
		mu.Unlock()
	})
	return Window{
		Par:        par,
		Mode:       mode,
		Elapsed:    elapsed,
		Ops:        ops,
		Allocs:     int64(after.Mallocs - before.Mallocs),
		AllocBytes: int64(after.TotalAlloc - before.TotalAlloc),
		Stats:      metrics.Sum(ps.Stats()).Since(statsBase),
		Net:        cl.Net().Stats().Since(netBase),
		Lat:        ps.Latencies().Sub(latBase),
		Sojourn:    sojourn,
	}
}

// warmupSeedOffset keeps the warmup RNG streams disjoint from the measured
// phase's, which must stay identical with and without warmup.
const warmupSeedOffset = 1 << 20

// warmUp drives step(0), step(1), … unmeasured until d elapses — reading the
// clock only every checkEvery steps (a power of two) — then drains the
// worker's in-flight operations with finish, so the measured window that
// follows starts from steady state.
func warmUp(d time.Duration, checkEvery int, step func(i int), finish func()) {
	deadline := time.Now().Add(d)
	for i := 0; ; i++ {
		if i&(checkEvery-1) == 0 && i > 0 && !time.Now().Before(deadline) {
			break
		}
		step(i)
	}
	finish()
}
