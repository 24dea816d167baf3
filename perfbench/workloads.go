package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"lapse/internal/driver"
	"lapse/internal/kv"
)

// setupRounds is how many extra set-ups (cluster, build, init, close) a run
// makes before measuring, so setup_s is a median and not one sample.
const setupRounds = 15

// measureSetups sets up and tears down d setupRounds times.
func measureSetups(d deployment, layout kv.Layout, opt driver.Options, init func(kv.Key, []float32), out *outcome) ([]float64, error) {
	var took []float64
	for i := 0; i < setupRounds; i++ {
		sys, t, err := setUp(d, layout, opt, init)
		if err != nil {
			return nil, err
		}
		out.noteTransport(sys.transport)
		sys.close()
		took = append(took, t.Seconds())
	}
	return took, nil
}

// noteTransport records the transport a cluster of the run selected. The
// network stack falls back to TCP without saying so when it cannot set up
// shared-memory rings, so a cluster that selected another transport than
// the first is a failed check: its numbers would be mixed into medians the
// record attributes to the first.
func (o *outcome) noteTransport(t string) {
	switch o.rec.Transport {
	case "":
		o.rec.Transport = t
	case t:
	default:
		o.fails.add(0, 1)
		o.checks = append(o.checks, fmt.Sprintf("a cluster selected transport %s, the first selected %s", t, o.rec.Transport))
	}
}

// runTraining runs a training workload: untraced, repeated fresh sessions
// of spec.epochs epochs until the time is up; traced, one untraced and one
// traced session plus the 1×1 reference epoch and the transport ping-pong.
func runTraining(name string, spec trainSpec, o runOpts) (*outcome, error) {
	d := newDeployment(spec.shm, filepath.Join(o.outDir, "shm"))
	out := &outcome{rec: record{Nodes: d.nodes, Workers: d.workers, Shards: d.shards, InputHash: spec.hash},
		values: map[string]float64{}}
	start := time.Now()
	setups, err := measureSetups(d, spec.layout, spec.opts, spec.init, out)
	if err != nil {
		return nil, err
	}
	account := func(s *session) {
		if s.nodes == d.nodes {
			out.noteTransport(s.transport)
		}
		failed := s.readFails + s.dropped
		if failed > 0 {
			fmt.Printf("session failures: %d of %d ReadParameter calls panicked, %d messages dropped\n",
				s.readFails, s.reads, s.dropped)
		}
		if s.netErr != nil {
			failed++
			out.checks = append(out.checks, fmt.Sprintf("transport error: %v", s.netErr))
		}
		if !s.checkOK {
			failed++
			out.checks = append(out.checks, fmt.Sprintf("%s losses do not fall: %v", name, s.losses))
		}
		out.fails.add(s.items+s.reads, failed)
	}

	if o.trace {
		return traceTraining(spec, d, out, account)
	}

	var sessions []*session
	budget := time.Duration(o.seconds * float64(time.Second))
	for {
		out.probe()
		s, err := trainSession(spec, d, spec.epochs, nil)
		if err != nil {
			return nil, err
		}
		account(s)
		sessions = append(sessions, s)
		t := s.to.totals.Since(s.from.totals)
		fmt.Printf("session %d: epochs %v s, promotions %d, demotions %d, adaptive relocations %d, remote reads/item %.1f, replica hits/item %.1f, host steal %.3f, cache probe before %.2f ms\n",
			len(sessions), roundAll(durSeconds(s.epochs)), t.AdaptPromotions, t.AdaptDemotions, t.AdaptRelocations,
			float64(t.RemoteReads)/float64(s.items), float64(t.ReplicaHits)/float64(s.items), stealShare(s.from, s.to),
			out.probes[len(out.probes)-1])
		setups = append(setups, s.setup.Seconds())
		elapsed := time.Since(start)
		per := elapsed / time.Duration(len(sessions))
		if elapsed+per > budget {
			break
		}
	}
	var epochs, cpus []float64
	var promotions, demotions, adaptRelocs, remote, relocs, replicaHits, items, readFails, dropped int64
	for _, s := range sessions {
		readFails += s.readFails
		dropped += s.dropped
		t := s.to.totals.Since(s.from.totals)
		promotions += t.AdaptPromotions
		demotions += t.AdaptDemotions
		adaptRelocs += t.AdaptRelocations
		remote += t.RemoteReads
		relocs += t.Relocations
		replicaHits += t.ReplicaHits
		items += s.items
		epochs = append(epochs, durSeconds(s.epochs)...)
		cpus = append(cpus, s.cpu.Seconds()*1e6/float64(s.items))
	}
	v := out.values
	v["setup_s"] = median(setups)
	v["epoch_s"] = median(epochs)
	v["cpu_us_per_item"] = median(cpus)
	v["peak_rss_mb"] = peakRSSMB()
	out.diag = map[string]float64{
		"adaptive.promotions":          float64(promotions),
		"adaptive.demotions":           float64(demotions),
		"adaptive.relocations":         float64(adaptRelocs),
		"core.remote_reads_per_item":   float64(remote) / float64(items),
		"core.relocations_per_item":    float64(relocs) / float64(items),
		"replication.hits_per_item":    float64(replicaHits) / float64(items),
		"core.read_parameter_failures": float64(readFails),
		"transport.dropped":            float64(dropped),
	}
	fmt.Printf("sessions %d, epoch times %v s\n", len(sessions), roundAll(epochs))
	return out, nil
}

// traceTraining is the traced run of a training workload: an untraced and a
// traced session of spec.traceEpochs epochs each, whose median epochs give
// the tracing overhead, one epoch on 1 node × 1 worker, and the transport
// ping-pong.
func traceTraining(spec trainSpec, d deployment, out *outcome, account func(*session)) (*outcome, error) {
	epochs := spec.traceEpochs
	plain, err := trainSession(spec, d, epochs, nil)
	if err != nil {
		return nil, err
	}
	account(plain)
	tr := newTracer()
	traced, err := trainSession(spec, d, epochs, tr)
	if err != nil {
		return nil, err
	}
	account(traced)
	one := d
	one.nodes, one.workers = 1, 1
	single, err := trainSession(spec, one, 1, nil)
	if err != nil {
		return nil, err
	}
	account(single)
	rttP50, rttP99, err := pingPong(d, 2000)
	if err != nil {
		return nil, err
	}
	med := func(s *session) float64 { return median(durSeconds(s.epochs)) }
	w := window{
		from: traced.from, to: traced.to, items: float64(traced.items), servers: d.nodes * d.shards,
		spans: tr.all(), rttP50: rttP50, rttP99: rttP99,
		singleEpoch: single.epochs[0].Seconds(),
		finalLoss:   traced.losses[len(traced.losses)-1],
		overhead:    med(traced)/med(plain) - 1,
	}
	out.values = perLayerValues(w)
	out.spans = tr
	return out, nil
}

// runServe runs the serve-lease workload. Untraced, it repeats sessions on
// fresh clusters until the time is up, each making closed passes; the
// metrics are medians over passes, which vary more between clusters than
// within one. Traced, one session runs an untraced and a traced open-loop
// phase at the nominal rate, the rate ladder and the transport ping-pong.
func runServe(o runOpts) (*outcome, error) {
	cfg := defaultServeConfig()
	d := newDeployment(true, filepath.Join(o.outDir, "shm"))
	layout := kv.NewUniformLayout(cfg.load.Keys, cfg.load.ValLen)
	streams := genServeStreams(cfg, d.nodes*d.workers, cfg.streamLen, o.seed)
	h := newInputHash()
	for _, s := range streams {
		for i, r := range s.reqs {
			for _, k := range r.keys {
				h.ints(int64(k))
			}
			h.ints(r.push, int64(s.gaps[i]*1e9))
		}
	}
	out := &outcome{rec: record{Nodes: d.nodes, Workers: d.workers, Shards: d.shards, InputHash: h.sum()},
		values: map[string]float64{}}
	opts := serveOptions(cfg)
	setups, err := measureSetups(d, layout, opts, serveInit, out)
	if err != nil {
		return nil, err
	}
	secs := func(share float64) time.Duration { return time.Duration(o.seconds * share * float64(time.Second)) }

	// session sets up a fresh cluster, warms the lease cache closed loop,
	// runs body, then checks every key and tears the cluster down.
	session := func(body func(sys *system, lanes []*lane, all *phaseResult) error) error {
		sys, took, err := setUp(d, layout, opts, serveInit)
		if err != nil {
			return err
		}
		defer sys.close()
		setups = append(setups, took.Seconds())
		out.noteTransport(sys.transport)
		all := newPhaseResult() // every request of the session, for the checks
		lanes := make([]*lane, len(streams))
		for w := range lanes {
			streams[w].next = 0
			lanes[w] = newLane(sys.ps.Handle(w).(reader), streams[w], cfg)
		}
		warm, _, _ := closedPhase(lanes, cfg.warmupRequests)
		all.merge(warm)
		if err := body(sys, lanes, all); err != nil {
			return err
		}
		out.checks = append(out.checks, serveChecks(sys, cfg, all)...)
		out.fails.add(all.scheduled, all.failed)
		return nil
	}

	if o.trace {
		err := session(func(sys *system, lanes []*lane, all *phaseResult) error {
			untraced := openPhase(lanes, cfg.nominal, secs(cfg.traceShare))
			all.merge(untraced)
			tr := newTracer()
			g := &guardedPS{PS: sys.ps}
			tps := &tracedPS{PS: g, t: tr}
			tlanes := make([]*lane, len(streams))
			for w := range tlanes {
				tlanes[w] = newLane(tps.Handle(w).(reader), streams[w], cfg)
			}
			from := takeEdge(sys, g)
			traced := openPhase(tlanes, cfg.nominal, secs(cfg.traceShare))
			to := takeEdge(sys, g)
			all.merge(traced)
			maxRate, _ := searchRate(cfg.ladder, cfg.refine, cfg.limit, func(rate float64) rung {
				r := openPhase(lanes, rate, secs(cfg.rungShare))
				all.merge(r)
				rg := rung{rate: rate, p99: quantile(r.sojourns, tailPercentile(len(r.sojourns), 0.5, 0.9, 0.99)),
					backlog: backlogGrows(r.scheduled, r.completedByEnd, rate, cfg.limit)}
				fmt.Printf("rung %.0f/s: p99 %.0fus, backlog %v\n", rate, rg.p99, rg.backlog)
				return rg
			})
			rttP50, rttP99, err := pingPong(d, 2000)
			if err != nil {
				return err
			}
			out.spans = tr
			out.values = perLayerValues(window{
				from: from, to: to, items: float64(traced.scheduled), servers: d.nodes * d.shards,
				spans: tr.all(), rttP50: rttP50, rttP99: rttP99, loadgen: traced,
				overhead: quantile(traced.sojourns, 0.5)/quantile(untraced.sojourns, 0.5) - 1,
			})
			out.values["open_loop.read_p50_us"] = quantile(untraced.sojourns, 0.5)
			out.values["open_loop.read_p99_us"] = quantile(untraced.sojourns, tailPercentile(len(untraced.sojourns), 0.5, 0.9, 0.99))
			out.values["open_loop.max_rate_rps"] = maxRate
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	begin := time.Now()
	var passes, cpus []float64
	for n := 1; ; n++ {
		out.probe()
		err := session(func(sys *system, lanes []*lane, all *phaseResult) error {
			for j := 0; j < cfg.passes; j++ {
				r, took, cpu := closedPhase(lanes, cfg.passRequests)
				all.merge(r)
				passes = append(passes, took.Seconds())
				cpus = append(cpus, cpu.Seconds()*1e6/float64(r.scheduled))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if elapsed := time.Since(begin); elapsed+elapsed/time.Duration(n) > budget {
			break
		}
	}
	v := out.values
	v["setup_s"] = median(setups)
	v["epoch_s"] = median(passes)
	v["cpu_us_per_item"] = median(cpus)
	v["peak_rss_mb"] = peakRSSMB()
	fmt.Printf("%d closed passes, %v s\n", len(passes), roundAll(passes))
	return out, nil
}

// serveChecks verifies every key after the writes drained and returns the
// failed checks, adding each wrong key and each transport loss to
// all.failed.
func serveChecks(sys *system, cfg serveConfig, all *phaseResult) []string {
	var checks []string
	bad, err := checkServed(sys, cfg, all.pushes)
	if err != nil {
		all.failed++
		checks = append(checks, err.Error())
	}
	if bad > 0 {
		all.failed += bad
		checks = append(checks, fmt.Sprintf("%d keys read back differ from their initial value plus the writes sent", bad))
	}
	if err := sys.cl.Err(); err != nil {
		all.failed++
		checks = append(checks, fmt.Sprintf("transport error: %v", err))
	}
	all.failed += sys.cl.Net().Dropped()
	return checks
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1e4)) / 1e4
	}
	sort.Float64s(out)
	return out
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
