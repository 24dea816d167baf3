package main

import (
	"math"
	rtm "runtime/metrics"
	"time"

	"lapse/internal/metrics"
	"lapse/internal/transport"
)

// metricDef is one reported metric: its name, unit and which direction is
// better. METRICS.md defines each and, for per-layer metrics, names the
// end-to-end metric and workload it should move.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the metrics every untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"epoch_s", "s", "lower"},
	{"cpu_us_per_item", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer lists the metrics every traced run reports, on every workload;
// a layer a workload bypasses reads zero.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"ml.self_s", "s", "lower"},
		{"ml.single_worker_epoch_s", "s", "lower"},
		{"ml.final_loss", "ratio", "lower"},
	}
	for _, c := range callNames {
		p := "client." + c
		defs = append(defs,
			metricDef{p + ".calls", "count", "lower"},
			metricDef{p + ".busy_s", "s", "lower"},
			metricDef{p + ".p50_us", "us", "lower"},
			metricDef{p + ".p99_us", "us", "lower"},
		)
	}
	defs = append(defs, []metricDef{
		{"core.local_read_share", "ratio", "higher"},
		{"core.remote_reads_per_item", "count", "lower"},
		{"core.relocations_per_item", "count", "lower"},
		{"core.relocation_p50_us", "us", "lower"},
		{"core.relocation_p99_us", "us", "lower"},
		{"core.queued_ops_per_item", "count", "lower"},
		{"core.queue_wait_p99_us", "us", "lower"},
		{"core.forwards_per_item", "count", "lower"},
		{"core.double_forwards", "count", "lower"},
		{"core.pull_remote_p50_us", "us", "lower"},
		{"core.pull_remote_p99_us", "us", "lower"},
		{"core.read_parameter_failures", "count", "lower"},
		{"replication.hit_share", "ratio", "higher"},
		{"replication.sync_msgs_per_s", "1/s", "lower"},
		{"replication.sync_p99_us", "us", "lower"},
		{"adaptive.promotions", "count", "lower"},
		{"adaptive.demotions", "count", "lower"},
		{"adaptive.relocations", "count", "lower"},
		{"serving.hit_share", "ratio", "higher"},
		{"serving.lease_grants_per_s", "1/s", "lower"},
		{"serving.lease_revokes_per_s", "1/s", "lower"},
		{"serving.invalidations_per_s", "1/s", "lower"},
		{"server.serve_p50_us", "us", "lower"},
		{"server.serve_p99_us", "us", "lower"},
		{"server.busy_share", "ratio", "lower"},
		{"transport.msgs_per_item", "count", "lower"},
		{"transport.bytes_per_item", "B", "lower"},
		{"transport.dropped", "count", "lower"},
		{"transport.rtt_p50_us", "us", "lower"},
		{"transport.rtt_p99_us", "us", "lower"},
		{"runtime.allocs_per_item", "count", "lower"},
		{"runtime.alloc_bytes_per_item", "B", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"runtime.gc_pause_p99_us", "us", "lower"},
		{"open_loop.read_p50_us", "us", "lower"},
		{"open_loop.read_p99_us", "us", "lower"},
		{"open_loop.max_rate_rps", "1/s", "higher"},
		{"loadgen.lag_p50_us", "us", "lower"},
		{"loadgen.lag_p99_us", "us", "lower"},
		{"loadgen.outstanding_max", "count", "lower"},
		{"trace.overhead_share", "ratio", "lower"},
		{"failed_share", "ratio", "lower"},
	}...)
	return defs
}()

// Runtime metrics read at the window edges.
const (
	rtAllocs   = "/gc/heap/allocs:objects"
	rtBytes    = "/gc/heap/allocs:bytes"
	rtGCCycles = "/gc/cycles/total:gc-cycles"
	rtGCPauses = "/sched/pauses/total/gc:seconds"
)

// edge is everything the traced run reads at one edge of its window.
type edge struct {
	at        time.Time
	totals    metrics.Totals
	lat       metrics.LatencySnapshot
	net       transport.Stats
	dropped   int64
	cpu       time.Duration
	readFails int64
	stealTick int64 // host CPU ticks stolen by the hypervisor, -1 if unknown
	hostTick  int64 // host CPU ticks in total
	rt        []rtm.Sample
}

func takeEdge(sys *system, g *guardedPS) edge {
	e := edge{
		at:        time.Now(),
		totals:    metrics.Sum(sys.ps.Stats()),
		lat:       sys.ps.Latencies(),
		net:       sys.cl.Net().Stats(),
		dropped:   sys.cl.Net().Dropped(),
		cpu:       cpuTime(),
		readFails: g.readFails.Load(),
		rt: []rtm.Sample{
			{Name: rtAllocs}, {Name: rtBytes}, {Name: rtGCCycles}, {Name: rtGCPauses},
		},
	}
	rtm.Read(e.rt)
	h := hostEdge()
	e.stealTick, e.hostTick = h.stealTick, h.hostTick
	return e
}

// window is one traced measurement: its edges, the items it processed and
// what the trace and the side measurements add.
type window struct {
	from, to    edge
	items       float64
	servers     int // server shard loops in the cluster (nodes × shards)
	spans       []span
	rttP50      float64
	rttP99      float64
	loadgen     *phaseResult
	singleEpoch float64
	finalLoss   float64
	overhead    float64
}

func rtUint(s rtm.Sample) uint64 {
	if s.Value.Kind() == rtm.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

// pauseP99 returns the p99 of the GC pauses recorded between two histogram
// snapshots, in µs (the upper bound of the bucket holding it).
func pauseP99(from, to rtm.Sample) float64 {
	if from.Value.Kind() != rtm.KindFloat64Histogram || to.Value.Kind() != rtm.KindFloat64Histogram {
		return 0
	}
	a, b := from.Value.Float64Histogram(), to.Value.Float64Histogram()
	var total uint64
	d := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		d[i] = b.Counts[i] - a.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(float64(total) * 0.99)
	var seen uint64
	for i, c := range d {
		seen += c
		if seen > rank {
			if math.IsInf(b.Buckets[i+1], 1) {
				return b.Buckets[i] * 1e6
			}
			return b.Buckets[i+1] * 1e6
		}
	}
	return 0
}

// perLayerValues derives every per-layer metric from a traced window.
func perLayerValues(w window) map[string]float64 {
	out := map[string]float64{}
	t := w.to.totals.Since(w.from.totals)
	lat := w.to.lat.Sub(w.from.lat)
	net := w.to.net.Since(w.from.net)
	secs := w.to.at.Sub(w.from.at).Seconds()
	per := func(x float64) float64 {
		if w.items == 0 {
			return 0
		}
		return x / w.items
	}
	share := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	rate := func(x int64) float64 {
		if secs == 0 {
			return 0
		}
		return float64(x) / secs
	}

	self := epochSelfTimes(w.spans)
	selfS := make([]float64, len(self))
	for i, d := range self {
		selfS[i] = d.Seconds()
	}
	if len(selfS) > 0 {
		out["ml.self_s"] = median(selfS)
	}
	out["ml.single_worker_epoch_s"] = w.singleEpoch
	out["ml.final_loss"] = w.finalLoss

	calls := summariseCalls(w.spans)
	for i, c := range callNames {
		p := "client." + c
		out[p+".calls"] = float64(calls[i].calls)
		out[p+".busy_s"] = calls[i].busy.Seconds()
		out[p+".p50_us"] = calls[i].p50
		out[p+".p99_us"] = calls[i].p99
	}

	reads := t.TotalReads() + t.ServingHits
	out["core.local_read_share"] = share(t.LocalReads, reads)
	out["core.remote_reads_per_item"] = per(float64(t.RemoteReads))
	out["core.relocations_per_item"] = per(float64(t.Relocations))
	out["core.relocation_p50_us"] = histUS(t.RelocationTime, 0.5)
	out["core.relocation_p99_us"] = histUS(t.RelocationTime, 0.99)
	out["core.queued_ops_per_item"] = per(float64(t.QueuedOps))
	out["core.queue_wait_p99_us"] = histUS(t.QueueWait, 0.99)
	out["core.forwards_per_item"] = per(float64(t.Forwards))
	out["core.double_forwards"] = float64(t.DoubleForwards)
	out["core.pull_remote_p50_us"] = histUS(lat.PullSlow, 0.5)
	out["core.pull_remote_p99_us"] = histUS(lat.PullSlow, 0.99)
	out["core.read_parameter_failures"] = float64(w.to.readFails - w.from.readFails)

	out["replication.hit_share"] = share(t.ReplicaHits, reads)
	out["replication.sync_msgs_per_s"] = rate(t.ReplicaSyncMessages)
	out["replication.sync_p99_us"] = histUS(t.ReplicaSyncTime, 0.99)
	out["adaptive.promotions"] = float64(t.AdaptPromotions)
	out["adaptive.demotions"] = float64(t.AdaptDemotions)
	out["adaptive.relocations"] = float64(t.AdaptRelocations)

	out["serving.hit_share"] = share(t.ServingHits, t.ServingHits+t.ServingMisses)
	out["serving.lease_grants_per_s"] = rate(t.LeaseGrants)
	out["serving.lease_revokes_per_s"] = rate(t.LeaseRevokes)
	out["serving.invalidations_per_s"] = rate(t.LeaseInvalidations)

	out["server.serve_p50_us"] = histUS(t.ServeLatency, 0.5)
	out["server.serve_p99_us"] = histUS(t.ServeLatency, 0.99)
	if secs > 0 && w.servers > 0 {
		out["server.busy_share"] = t.ServeLatency.Sum().Seconds() / (secs * float64(w.servers))
	}

	out["transport.msgs_per_item"] = per(float64(net.RemoteMessages + net.LoopbackMessages))
	out["transport.bytes_per_item"] = per(float64(net.RemoteBytes + net.LoopbackBytes))
	out["transport.dropped"] = float64(w.to.dropped - w.from.dropped)
	out["transport.rtt_p50_us"] = w.rttP50
	out["transport.rtt_p99_us"] = w.rttP99

	out["runtime.allocs_per_item"] = per(float64(rtUint(w.to.rt[0]) - rtUint(w.from.rt[0])))
	out["runtime.alloc_bytes_per_item"] = per(float64(rtUint(w.to.rt[1]) - rtUint(w.from.rt[1])))
	out["runtime.gc_cycles"] = float64(rtUint(w.to.rt[2]) - rtUint(w.from.rt[2]))
	out["runtime.gc_pause_p99_us"] = pauseP99(w.from.rt[3], w.to.rt[3])

	if lg := w.loadgen; lg != nil {
		out["loadgen.lag_p50_us"] = quantile(lg.lags, 0.5)
		out["loadgen.lag_p99_us"] = quantile(lg.lags, tailPercentile(len(lg.lags), 0.5, 0.9, 0.99))
		out["loadgen.outstanding_max"] = float64(lg.outstandingMax)
	}
	out["trace.overhead_share"] = w.overhead
	for _, d := range perLayer {
		if _, ok := out[d.name]; !ok {
			out[d.name] = 0
		}
	}
	return out
}
