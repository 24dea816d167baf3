package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"lapse/internal/adaptive"
	"lapse/internal/data"
	"lapse/internal/driver"
	"lapse/internal/harness"
	"lapse/internal/kv"
	"lapse/internal/ml/kge"
	"lapse/internal/ml/w2v"
)

// guardedPS counts the ReadParameter calls the ML evaluation makes and turns
// a panicking one into a recorded failure, so one failed read costs one
// failed operation instead of the whole run. core.System.ReadParameter is
// known to panic ("key not at its registered owner") when the adaptive
// controller moves a key during the between-epoch evaluation.
type guardedPS struct {
	driver.PS
	reads, readFails atomic.Int64
}

func (g *guardedPS) ReadParameter(k kv.Key, dst []float32) {
	g.reads.Add(1)
	defer func() {
		if r := recover(); r != nil {
			g.readFails.Add(1)
			for i := range dst {
				dst[i] = 0
			}
		}
	}()
	g.PS.ReadParameter(k, dst)
}

// trainSpec is one training workload.
type trainSpec struct {
	shm    bool
	opts   driver.Options
	layout kv.Layout
	init   func(kv.Key, []float32)
	items  int // per epoch
	epochs int // per session
	// traceEpochs is the epoch count of each traced-run session.
	traceEpochs int
	// run trains epochs epochs (plus nodes × workers as deployed) and
	// returns per-epoch wall times and losses.
	run func(sys *system, ps driver.PS, epochs int) ([]time.Duration, []float64, error)
	// lossFalls is the output check on one session's losses.
	lossFalls func(losses []float64) bool
	// hash identifies the generated inputs.
	hash string
}

func kgeSpec(seed int64) trainSpec {
	cfg := harness.KGEScaledConfig(harness.ComplExSmall)
	cfg.PointCost = 0
	cfg.Seed = seed
	kg := data.SyntheticKG(cfg.Entities, cfg.Relations, cfg.Triples, seed)
	h := newInputHash()
	for _, t := range kg.Triples {
		h.ints(int64(t.S), int64(t.R), int64(t.O))
	}
	return trainSpec{
		shm:         true,
		layout:      cfg.Layout(),
		init:        cfg.InitEmbeddings(),
		items:       len(kg.Triples),
		epochs:      3,
		traceEpochs: 6,
		run: func(sys *system, ps driver.PS, epochs int) ([]time.Duration, []float64, error) {
			c := cfg
			c.Epochs = epochs
			res, err := kge.RunOnKG(sys.cl, ps, driver.Lapse, c, kge.ModeFull, kg)
			if err != nil {
				return nil, nil, err
			}
			return res.EpochTimes, res.Losses, nil
		},
		lossFalls: func(l []float64) bool {
			for _, x := range l {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return false
				}
			}
			return len(l) < 2 || l[len(l)-1] < l[0]
		},
		hash: h.sum(),
	}
}

func w2vSpec(seed int64) trainSpec {
	cfg := harness.W2VScaledConfig()
	cfg.PairCost = 0
	cfg.Seed = seed
	corpus := data.SyntheticCorpus(cfg.Vocab, cfg.Sentences, cfg.SentenceLen, seed)
	h := newInputHash()
	for _, s := range corpus.Sentences {
		for _, w := range s {
			h.ints(int64(w))
		}
		h.ints(-1)
	}
	return trainSpec{
		shm:         false,
		opts:        driver.Options{Adaptive: &adaptive.Config{}},
		layout:      cfg.Layout(),
		init:        cfg.InitVectors(),
		items:       len(corpus.Sentences),
		epochs:      2,
		traceEpochs: 2,
		run: func(sys *system, ps driver.PS, epochs int) ([]time.Duration, []float64, error) {
			c := cfg
			c.Epochs = epochs
			res, err := w2v.RunOnCorpus(sys.cl, ps, driver.Lapse, c, false, corpus)
			if err != nil {
				return nil, nil, err
			}
			return res.EpochTimes, res.Errors, nil
		},
		lossFalls: func(l []float64) bool {
			for i, x := range l {
				if math.IsNaN(x) || math.IsInf(x, 0) || (i > 0 && x >= l[i-1]) {
					return false
				}
			}
			return true
		},
		hash: h.sum(),
	}
}

// session is one trained-from-scratch run of a training workload.
type session struct {
	setup     time.Duration
	epochs    []time.Duration
	losses    []float64
	cpu       time.Duration
	items     int64
	reads     int64 // ReadParameter calls
	readFails int64
	dropped   int64
	netErr    error
	checkOK   bool
	transport string
	nodes     int
	from, to  edge // counters at the edges of the training
}

// trainSession sets up a fresh cluster for spec, trains it for epochs
// epochs, checks its losses and tears it down. With tr set, every client
// call of the training is recorded as a span.
func trainSession(spec trainSpec, d deployment, epochs int, tr *tracer) (*session, error) {
	sys, setup, err := setUp(d, spec.layout, spec.opts, spec.init)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	g := &guardedPS{PS: sys.ps}
	var ps driver.PS = g
	var tps *tracedPS
	if tr != nil {
		tps = &tracedPS{PS: g, t: tr}
		ps = tps
	}
	s := &session{setup: setup, transport: sys.transport, nodes: d.nodes}
	s.from = takeEdge(sys, g)
	times, losses, err := spec.run(sys, ps, epochs)
	s.to = takeEdge(sys, g)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	if tps != nil {
		tps.closeEpochs()
	}
	s.epochs, s.losses = times, losses
	s.cpu = s.to.cpu - s.from.cpu
	s.items = int64(spec.items * len(times))
	s.reads = g.reads.Load()
	s.readFails = g.readFails.Load()
	s.dropped = s.to.dropped - s.from.dropped
	s.netErr = sys.cl.Err()
	// A session whose evaluation lost a read has an unreliable loss curve;
	// the lost read is counted as a failure instead of failing the check.
	s.checkOK = s.readFails > 0 || spec.lossFalls(losses)
	return s, nil
}
