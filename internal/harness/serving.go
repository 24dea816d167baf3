package harness

import (
	"fmt"
	"math/rand"
	"time"

	"lapse/internal/cluster"
	"lapse/internal/core"
	"lapse/internal/driver"
	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/simnet"
)

// The serving workload measures the read path the way an online serving tier
// is measured: open loop. Requests arrive on a fixed schedule at a configured
// cluster-wide rate whether or not earlier requests have finished, and each
// request's sojourn time is completion minus *scheduled* arrival — so when a
// server cannot keep up, the backlog shows up as growing tail latency instead
// of silently stretching the measurement window (the coordinated-omission
// trap of closed-loop latency loops). Two read paths are compared at the same
// arrival schedule: plain batched Pull, and MultiGet through the lease-based
// serving cache.

// ServingMode selects the read path of the serving workload.
type ServingMode string

const (
	// ServingPull issues each request as a plain batched Pull (serving
	// tier disabled) — the baseline every read pays the key's location for.
	ServingPull ServingMode = "pull"
	// ServingMultiGet issues each request as a MultiGet against the
	// lease-based serving cache (core.ServingConfig enabled).
	ServingMultiGet ServingMode = "multiget"
)

// ServingModes lists the compared read paths.
func ServingModes() []ServingMode {
	return []ServingMode{ServingPull, ServingMultiGet}
}

// ServingLoad parameterizes one open-loop serving run.
type ServingLoad struct {
	// Keys and ValLen declare the uniform parameter layout.
	Keys   kv.Key
	ValLen int
	// Batch is the number of keys per read request.
	Batch int
	// Rate is the cluster-wide scheduled arrival rate (read requests per
	// second), divided evenly over the workers: worker w of W issues its
	// i-th request at start + (i*W+w)/Rate.
	Rate float64
	// Requests is the number of scheduled read requests per worker.
	Requests int
	// ZipfS is the Zipf skew exponent (> 1); 0 samples keys uniformly.
	ZipfS float64
	// HotK is the size of the drifting hot set: every DriftEvery requests a
	// worker rotates its key space by HotK positions, so the identity of
	// the hot keys moves and cached leases go stale the way a live serving
	// workload's do.
	HotK int
	// DriftEvery is the number of requests between hot-set rotations
	// (0 = no drift).
	DriftEvery int
	// PushEvery issues an asynchronous single-key push after every Nth read
	// request (0 = read-only), exercising the write-invalidate path.
	PushEvery int
	// TTL is the serving-cache lease TTL (0 = core.DefaultLeaseTTL);
	// ServingMultiGet only.
	TTL time.Duration
	// Seed seeds the per-worker RNGs.
	Seed int64
	// Warmup drives the key distribution closed-loop (unpaced) for this
	// long before the measured window, settling location caches and
	// pre-populating the serving cache.
	Warmup time.Duration
	// Net is the simulated network profile (zero = instantaneous). The
	// serving comparison needs real latency: with an instantaneous network
	// both read paths keep up with any schedule.
	Net simnet.Config
}

// ServingWorkload returns the benchmark runner's serving configuration: a
// Zipf-skewed read-mostly stream over 2k keys with a drifting hot set, at an
// arrival rate the plain Pull path cannot sustain over the paper's simulated
// network (each batched Pull pays ~2×300µs for its remote keys, so per-worker
// capacity is below the schedule) while the lease-cached path absorbs it.
func ServingWorkload() ServingLoad {
	return ServingLoad{
		Keys: 2048, ValLen: 8, Batch: 4,
		Rate: 8000, Requests: 1200,
		ZipfS: 1.6, HotK: 64, DriftEvery: 400,
		PushEvery: 16, TTL: 200 * time.Millisecond, Seed: 17,
		Warmup: 100 * time.Millisecond,
		Net:    NetProfile(0), // Nodes filled in by RunServing
	}
}

// RunServing executes the open-loop serving workload on Lapse with the given
// read path and returns the measured window.
func RunServing(par Parallelism, cfg ServingLoad, mode ServingMode) Window {
	net := cfg.Net
	net.Nodes = par.Nodes
	net.Shards = par.Shards
	var opt driver.Options
	if mode == ServingMultiGet {
		opt.Serving = &core.ServingConfig{TTL: cfg.TTL}
	}
	var w Window
	withPSNet(driver.Lapse, par, kv.NewUniformLayout(cfg.Keys, cfg.ValLen), opt, net,
		func(cl *cluster.Cluster, ps driver.PS) { w = RunServingNode(par, cl, ps, cfg, mode) })
	return w
}

// RunServingNode executes this process's share of the serving workload; the
// caller owns cl and ps and closes them afterwards. Workers first warm the
// cluster closed-loop for cfg.Warmup; the measured window (see measure) then
// opens, all workers pace their requests off its start instant, and it closes
// after every worker drained its in-flight operations. Ops counts the whole
// cluster's read requests; Sojourn covers this process's.
func RunServingNode(par Parallelism, cl *cluster.Cluster, ps driver.PS, cfg ServingLoad, mode ServingMode) Window {
	return measure(par, cl, ps, string(mode), int64(par.Nodes*par.Workers*cfg.Requests),
		func(worker int) {
			// Closed-loop (unpaced) warmup settles relocation and location
			// caches and pre-populates the serving cache.
			if cfg.Warmup > 0 {
				l := newServingLoop(ps, cfg, mode, worker, cfg.Seed+warmupSeedOffset+int64(worker))
				warmUp(cfg.Warmup, 16, l.step, l.finish)
			}
		},
		func(worker int, start time.Time) metrics.HistSnapshot {
			// Worker `worker` owns arrivals worker, worker+W, worker+2W, …
			// of the cluster-wide schedule at cfg.Rate.
			l := newServingLoop(ps, cfg, mode, worker, cfg.Seed+int64(worker))
			var hist metrics.Histogram
			w := par.Nodes * par.Workers
			perNs := float64(time.Second) / cfg.Rate
			for i := 0; i < cfg.Requests; i++ {
				sched := start.Add(time.Duration(float64(i*w+worker) * perNs))
				if wait := time.Until(sched); wait > 0 {
					// Simulated networks sleep precisely through their
					// central scheduler, so paced workers overlap in wall
					// time.
					cl.Compute(wait)
				}
				l.read(i)
				hist.Observe(time.Since(sched))
				l.pushAfter(i)
			}
			l.finish()
			return hist.Snapshot()
		})
}

// multiGetter is the serving-tier read interface of the Lapse handle.
type multiGetter interface {
	MultiGet(keys []kv.Key, dst []float32) *kv.Future
}

// servingLoop is one worker's request state: the sampled key stream, the
// drifting hot-set offset, and the scratch buffers of its reads and pushes.
type servingLoop struct {
	cfg   ServingLoad
	h     kv.KV
	mg    multiGetter // nil in ServingPull mode
	rng   *rand.Rand
	zipf  *rand.Zipf
	keys  []kv.Key
	buf   []float32
	pkey  []kv.Key
	delta []float32
	base  uint64 // current hot-set rotation offset
	reqs  int    // requests sampled, for drift epochs
}

func newServingLoop(ps driver.PS, cfg ServingLoad, mode ServingMode, worker int, seed int64) *servingLoop {
	l := &servingLoop{
		cfg:   cfg,
		h:     ps.Handle(worker),
		rng:   rand.New(rand.NewSource(seed)),
		keys:  make([]kv.Key, cfg.Batch),
		buf:   make([]float32, cfg.Batch*cfg.ValLen),
		pkey:  make([]kv.Key, 1),
		delta: make([]float32, cfg.ValLen),
	}
	if cfg.ZipfS > 0 {
		l.zipf = rand.NewZipf(l.rng, cfg.ZipfS, 1, uint64(cfg.Keys-1))
	}
	if mode == ServingMultiGet {
		mg, ok := l.h.(multiGetter)
		if !ok {
			panic(fmt.Sprintf("harness: serving handle %T has no MultiGet", l.h))
		}
		l.mg = mg
	}
	for i := range l.delta {
		l.delta[i] = 0.01
	}
	return l
}

// sample returns the next key: a Zipf rank rotated by the drifting hot-set
// offset, so rank r maps to key (base+r) mod Keys and the hot set's identity
// moves every DriftEvery requests.
func (l *servingLoop) sample() kv.Key {
	if l.cfg.DriftEvery > 0 && l.reqs > 0 && l.reqs%l.cfg.DriftEvery == 0 {
		l.base = (l.base + uint64(l.cfg.HotK)) % uint64(l.cfg.Keys)
	}
	var r uint64
	if l.zipf != nil {
		r = l.zipf.Uint64()
	} else {
		r = uint64(l.rng.Int63n(int64(l.cfg.Keys)))
	}
	return kv.Key((l.base + r) % uint64(l.cfg.Keys))
}

// read issues the i-th read request synchronously.
func (l *servingLoop) read(i int) {
	l.reqs++
	for j := range l.keys {
		l.keys[j] = l.sample()
	}
	if l.mg != nil {
		if err := l.mg.MultiGet(l.keys, l.buf).Wait(); err != nil {
			panic(fmt.Sprintf("harness: serving multi-get: %v", err))
		}
		return
	}
	if err := l.h.Pull(l.keys, l.buf); err != nil {
		panic(fmt.Sprintf("harness: serving pull: %v", err))
	}
}

// pushAfter issues, after every PushEvery-th read request, an asynchronous
// single-key write sampled from the same distribution, so leases on hot keys
// actually get invalidated.
func (l *servingLoop) pushAfter(i int) {
	if l.cfg.PushEvery > 0 && i%l.cfg.PushEvery == l.cfg.PushEvery-1 {
		l.pkey[0] = l.sample()
		l.h.PushAsync(l.pkey, l.delta)
	}
}

// step issues the i-th request of the closed-loop warmup: a read and, every
// PushEvery requests, a write.
func (l *servingLoop) step(i int) {
	l.read(i)
	l.pushAfter(i)
}

// finish drains the worker's in-flight operations.
func (l *servingLoop) finish() {
	if err := l.h.WaitAll(); err != nil {
		panic(fmt.Sprintf("harness: serving waitall: %v", err))
	}
}
