package harness

import (
	"fmt"
	"math/rand"
	"time"

	"lapse/internal/adaptive"
	"lapse/internal/cluster"
	"lapse/internal/driver"
	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/simnet"
)

// The hot-key workloads exercise the case the paper's future-work section
// calls out (Sections 2 and 7): skewed access distributions where a small
// set of keys is read constantly by every node — word2vec negative samples,
// frequent KGE entities. Relocation thrashes on such keys (every node keeps
// stealing them back); replication serves them from node-local replicas.
// The workloads drive Lapse with either management technique so the benefit
// is measurable: remote reads for the hot keys drop to ~zero, paid for by
// O(nodes) sync messages per interval.

// HotKeyMode selects how the workload's keys are managed.
type HotKeyMode string

// The management techniques compared by the hot-key workloads.
const (
	// HotKeyRelocation is relocation-only Lapse: keys stay at their home
	// node unless localized, so hot keys are read over the network.
	HotKeyRelocation HotKeyMode = "relocation"
	// HotKeyLocalize localizes every key before accessing it — the
	// paper's relocation pattern, which thrashes on shared hot keys.
	HotKeyLocalize HotKeyMode = "localize"
	// HotKeyReplication replicates the top-k hottest keys; the rest keep
	// relocation management.
	HotKeyReplication HotKeyMode = "replication"
	// HotKeyAdaptive lets the online controller pick each key's technique
	// at runtime (replicate / relocate / leave home) with no static hot set.
	HotKeyAdaptive HotKeyMode = "adaptive"
)

// HotKeyModes lists the techniques compared by the hot-key workloads.
func HotKeyModes() []HotKeyMode {
	return []HotKeyMode{HotKeyRelocation, HotKeyLocalize, HotKeyReplication, HotKeyAdaptive}
}

// HotKeyConfig parameterizes one hot-key workload.
type HotKeyConfig struct {
	// Keys and ValLen declare the uniform parameter layout.
	Keys   kv.Key
	ValLen int
	// OpsPerWorker is the number of key accesses per worker.
	OpsPerWorker int
	// ZipfS is the Zipf skew exponent (> 1); 0 samples keys uniformly.
	// Key i is the (i+1)-th most frequent key, so the hot set is simply
	// the first HotK keys.
	ZipfS float64
	// HotK is the number of top keys replicated in HotKeyReplication mode.
	HotK int
	// PushEvery issues a push after every Nth pull (0 = pulls only).
	PushEvery int
	// Seed seeds the per-worker RNGs.
	Seed int64
	// SyncEvery is the replica sync interval (0 = default).
	SyncEvery time.Duration
	// Warmup drives the workload unmeasured for this long before the
	// measured window opens, so location caches, relocation queues, and the
	// adaptive controller reach steady state first. The measured windows of
	// the static modes would otherwise compare a settled system against an
	// adaptive controller still inside its first classification epochs.
	Warmup time.Duration
	// Net is the simulated network profile (zero = instantaneous).
	Net simnet.Config
	// PointCost models computation per access via cluster.Compute.
	PointCost time.Duration
}

// HotKeys returns the workload's hot set: the HotK hottest keys.
func (c HotKeyConfig) HotKeys() []kv.Key {
	hot := make([]kv.Key, c.HotK)
	for i := range hot {
		hot[i] = kv.Key(i)
	}
	return hot
}

// HotKeyWorkloads returns the named workload configurations of the
// benchmark runner: a uniform baseline, a Zipf-skewed mix, and a
// negative-sampling-like profile (heavier skew, read-mostly, larger
// values — the word2vec access pattern).
func HotKeyWorkloads() map[string]HotKeyConfig {
	return map[string]HotKeyConfig{
		// Warmup must cover several adaptive controller epochs (5ms tick,
		// 2-epoch dwell) so the measured window sees the settled hot set.
		"uniform": {
			Keys: 2048, ValLen: 8, OpsPerWorker: 400,
			ZipfS: 0, HotK: 32, PushEvery: 2, Seed: 11,
			Warmup: 50 * time.Millisecond,
		},
		"zipf": {
			Keys: 2048, ValLen: 8, OpsPerWorker: 400,
			ZipfS: 1.3, HotK: 32, PushEvery: 2, Seed: 11,
			Warmup: 50 * time.Millisecond,
		},
		"w2vneg": {
			Keys: 4096, ValLen: 16, OpsPerWorker: 400,
			ZipfS: 2.0, HotK: 64, PushEvery: 4, Seed: 11,
			Warmup: 50 * time.Millisecond,
		},
	}
}

// Options returns the Lapse build options of the workload under mode: the
// hot set replicated statically, or the adaptive controller with defaults.
func (c HotKeyConfig) Options(mode HotKeyMode) driver.Options {
	opt := driver.Options{ReplicaSyncEvery: c.SyncEvery}
	switch mode {
	case HotKeyReplication:
		opt.Replicate = c.HotKeys()
	case HotKeyAdaptive:
		opt.Adaptive = &adaptive.Config{}
	}
	return opt
}

// RunHotKeys executes the hot-key workload on Lapse with the given
// management technique and returns the measured window.
func RunHotKeys(par Parallelism, cfg HotKeyConfig, mode HotKeyMode) Window {
	net := cfg.Net
	net.Nodes = par.Nodes
	net.Shards = par.Shards
	var w Window
	withPSNet(driver.Lapse, par, kv.NewUniformLayout(cfg.Keys, cfg.ValLen), cfg.Options(mode), net,
		func(cl *cluster.Cluster, ps driver.PS) { w = RunHotKeysNode(par, cl, ps, cfg, mode) })
	return w
}

// RunHotKeysNode executes this process's share of the hot-key workload on a
// cluster that may span OS processes — one per node, each calling this with
// identical par/cfg/mode. The caller owns cl and ps (built for its node of
// the deployment) and closes them afterwards. Workers first drive the
// workload unmeasured for cfg.Warmup, then run their measured accesses inside
// one barrier-bounded window (see measure), so every process times the same
// span of settled-state work.
func RunHotKeysNode(par Parallelism, cl *cluster.Cluster, ps driver.PS, cfg HotKeyConfig, mode HotKeyMode) Window {
	return measure(par, cl, ps, string(mode), int64(par.Nodes*par.Workers*cfg.OpsPerWorker),
		func(worker int) {
			if cfg.Warmup > 0 {
				l := newHotKeyLoop(cl, ps, cfg, mode, worker, cfg.Seed+warmupSeedOffset+int64(worker))
				warmUp(cfg.Warmup, 64, l.step, l.finish)
			}
		},
		func(worker int, _ time.Time) metrics.HistSnapshot {
			// The worker index is global, so the per-worker RNG streams
			// are identical however the nodes are spread over processes.
			l := newHotKeyLoop(cl, ps, cfg, mode, worker, cfg.Seed+int64(worker))
			for op := 0; op < cfg.OpsPerWorker; op++ {
				l.step(op)
			}
			l.finish()
			return metrics.HistSnapshot{}
		})
}

// hotKeyLoop is one worker's workload state: the sampled key stream and the
// scratch buffers of its pulls and pushes.
type hotKeyLoop struct {
	cl         *cluster.Cluster
	cfg        HotKeyConfig
	mode       HotKeyMode
	h          kv.KV
	rng        *rand.Rand
	zipf       *rand.Zipf
	buf, delta []float32
	keys       []kv.Key
}

func newHotKeyLoop(cl *cluster.Cluster, ps driver.PS, cfg HotKeyConfig, mode HotKeyMode, worker int, seed int64) *hotKeyLoop {
	l := &hotKeyLoop{
		cl:    cl,
		cfg:   cfg,
		mode:  mode,
		h:     ps.Handle(worker),
		rng:   rand.New(rand.NewSource(seed)),
		buf:   make([]float32, cfg.ValLen),
		delta: make([]float32, cfg.ValLen),
		keys:  make([]kv.Key, 1),
	}
	if cfg.ZipfS > 0 {
		l.zipf = rand.NewZipf(l.rng, cfg.ZipfS, 1, uint64(cfg.Keys-1))
	}
	for i := range l.delta {
		l.delta[i] = 0.01
	}
	return l
}

// step issues the op-th access of the workload.
func (l *hotKeyLoop) step(op int) {
	if l.zipf != nil {
		l.keys[0] = kv.Key(l.zipf.Uint64())
	} else {
		l.keys[0] = kv.Key(l.rng.Int63n(int64(l.cfg.Keys)))
	}
	if l.mode == HotKeyLocalize {
		if err := l.h.Localize(l.keys); err != nil {
			panic(fmt.Sprintf("harness: hotkeys localize: %v", err))
		}
	}
	if err := l.h.Pull(l.keys, l.buf); err != nil {
		panic(fmt.Sprintf("harness: hotkeys pull: %v", err))
	}
	if l.cfg.PushEvery > 0 && op%l.cfg.PushEvery == 0 {
		if err := l.h.Push(l.keys, l.delta); err != nil {
			panic(fmt.Sprintf("harness: hotkeys push: %v", err))
		}
	}
	if l.cfg.PointCost > 0 {
		l.cl.Compute(l.cfg.PointCost)
	}
}

// finish drains the worker's in-flight operations.
func (l *hotKeyLoop) finish() {
	if err := l.h.WaitAll(); err != nil {
		panic(fmt.Sprintf("harness: hotkeys waitall: %v", err))
	}
}
