package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"lapse/internal/core"
	"lapse/internal/driver"
	"lapse/internal/harness"
	"lapse/internal/kv"
)

// serveConfig is the serve-lease workload: the key space, skew, drifting hot
// set, batch, lease TTL and write mix of harness.ServingWorkload, issued in
// closed passes (untraced runs) or open loop at a nominal rate and at each
// rung of a rate ladder (traced runs).
type serveConfig struct {
	load harness.ServingLoad
	// nominal is the cluster-wide arrival rate (requests/s) of the open-loop
	// phases, which open_loop.read_p50_us and read_p99_us come from.
	nominal float64
	// ladder lists the rates tried for open_loop.max_rate_rps, ascending.
	ladder []float64
	// refine is how many bisection steps follow the first failing rung.
	refine int
	// limit is the p99 sojourn a ladder rung must meet.
	limit time.Duration
	// traceShare is the part of the run's seconds each of the traced run's
	// two nominal-rate phases takes, and rungShare each ladder rung.
	traceShare, rungShare float64
	// passRequests is how many requests one closed pass (epoch_s) issues
	// on each worker's handle; passes is how many passes a session makes.
	passRequests, passes int
	// warmupRequests is how many requests per handle a session issues
	// closed loop before measuring, to fill the lease cache.
	warmupRequests int
	// streamLen is the length of each worker's pre-generated request
	// sequence; phases wrap around it.
	streamLen int
}

func defaultServeConfig() serveConfig {
	return serveConfig{
		load:           harness.ServingWorkload(),
		nominal:        16000,
		ladder:         []float64{16000, 32000, 64000, 128000, 256000, 512000, 1024000},
		refine:         4,
		limit:          20 * time.Millisecond,
		traceShare:     0.25,
		rungShare:      0.012,
		passRequests:   50000,
		passes:         3,
		warmupRequests: 2000,
		streamLen:      1 << 16,
	}
}

// The serving check needs values whose sums are exact in float32: every
// element starts at a small integer and every write adds pushDelta.
const pushDelta = 0.5

func serveInit(k kv.Key, v []float32) {
	for i := range v {
		v[i] = float32(int(k)%97 + i)
	}
}

// request is one pre-generated read: its keys, and the key of the write
// that follows it (-1 for none).
type request struct {
	keys []kv.Key
	push int64
}

// serveStream is one worker's pre-generated input: the request sequence and
// unit-mean exponential inter-arrival gaps, which a phase scales to its
// rate. Phases consume the sequence in order, so the hot set keeps drifting.
type serveStream struct {
	reqs []request
	gaps []float64
	next int
}

// genServeStreams draws every worker's requests and arrival gaps from seed,
// with the harness's key distribution: Zipf ranks rotated by a hot-set
// offset that advances every DriftEvery requests.
func genServeStreams(cfg serveConfig, workers, n int, seed int64) []*serveStream {
	l := cfg.load
	out := make([]*serveStream, workers)
	for w := range out {
		rng := rand.New(rand.NewSource(seed*7919 + int64(w)))
		zipf := rand.NewZipf(rng, l.ZipfS, 1, uint64(l.Keys-1))
		s := &serveStream{reqs: make([]request, n), gaps: make([]float64, n)}
		var base uint64
		sample := func() kv.Key {
			return kv.Key((base + zipf.Uint64()) % uint64(l.Keys))
		}
		for i := range s.reqs {
			if l.DriftEvery > 0 && i > 0 && i%l.DriftEvery == 0 {
				base = (base + uint64(l.HotK)) % uint64(l.Keys)
			}
			r := request{keys: make([]kv.Key, l.Batch), push: -1}
			for j := range r.keys {
				r.keys[j] = sample()
			}
			if l.PushEvery > 0 && i%l.PushEvery == l.PushEvery-1 {
				r.push = int64(sample())
			}
			s.reqs[i] = r
			s.gaps[i] = rng.ExpFloat64()
		}
		out[w] = s
	}
	return out
}

// take returns the next request and its unit arrival gap, wrapping around
// at the end of the stream.
func (s *serveStream) take() (request, float64) {
	i := s.next % len(s.reqs)
	s.next++
	return s.reqs[i], s.gaps[i]
}

// reader is what the load generator needs from a worker handle.
type reader interface {
	kv.KV
	multiGetter
}

// phaseResult records one phase of the serving workload.
type phaseResult struct {
	sojourns       []float64 // µs, completion minus due time, sorted
	lags           []float64 // µs, issue minus due time, sorted
	outstandingMax int
	scheduled      int64
	completedByEnd int64 // completions no later than the last due time
	failed         int64
	pushes         map[kv.Key]int64
}

func newPhaseResult() *phaseResult { return &phaseResult{pushes: map[kv.Key]int64{}} }

// merge adds o's counts and writes into r; the samples stay with o.
func (r *phaseResult) merge(o *phaseResult) {
	r.outstandingMax = max(r.outstandingMax, o.outstandingMax)
	r.scheduled += o.scheduled
	r.completedByEnd += o.completedByEnd
	r.failed += o.failed
	for k, n := range o.pushes {
		r.pushes[k] += n
	}
}

// slot is one in-flight request: its due time, buffer and future.
type slot struct {
	lane *lane
	due  int64
	buf  []float32
	f    *kv.Future
	span int64
	req  int64
}

// lane is one worker's handle and request stream.
type lane struct {
	h      reader
	traced *tracedKV // h when traced, else nil
	stream *serveStream
	slotN  int // values per request buffer
	free   []*slot
	delta  []float32
	pkey   []kv.Key
	reqID  int64
	due    float64 // next arrival, ns since the phase origin
	next   request
}

func newLane(h reader, stream *serveStream, cfg serveConfig) *lane {
	l := &lane{h: h, stream: stream, slotN: cfg.load.Batch * cfg.load.ValLen,
		delta: make([]float32, cfg.load.ValLen), pkey: make([]kv.Key, 1)}
	l.traced, _ = h.(*tracedKV)
	for i := range l.delta {
		l.delta[i] = pushDelta
	}
	return l
}

func (l *lane) getSlot() *slot {
	if n := len(l.free); n > 0 {
		s := l.free[n-1]
		l.free = l.free[:n-1]
		return s
	}
	return &slot{lane: l, buf: make([]float32, l.slotN)}
}

// push sends the write that follows req, if any.
func (l *lane) push(req request, res *phaseResult) {
	if req.push < 0 {
		return
	}
	l.pkey[0] = kv.Key(req.push)
	l.h.PushAsync(l.pkey, l.delta)
	res.pushes[kv.Key(req.push)]++
}

// closedPhase issues n requests per lane from one goroutine, taking the
// lanes in turn and waiting for each request before the next, and returns
// the merged result, the wall time and the process CPU time. One issuing
// goroutine leaves the host's other CPU to the servers, as in openPhase.
func closedPhase(lanes []*lane, n int) (*phaseResult, time.Duration, time.Duration) {
	runtime.GC()
	res := newPhaseResult()
	bufs := make([][]float32, len(lanes))
	for i, l := range lanes {
		bufs[i] = make([]float32, l.slotN)
	}
	cpu := cpuTime()
	start := time.Now()
	for i := 0; i < n; i++ {
		for j, l := range lanes {
			req, _ := l.stream.take()
			if err := l.h.MultiGet(req.keys, bufs[j]).Wait(); err != nil {
				res.failed++
			}
			res.scheduled++
			l.push(req, res)
		}
	}
	for _, l := range lanes {
		if err := l.h.WaitAll(); err != nil {
			res.failed++
		}
	}
	took := time.Since(start)
	cpu = cpuTime() - cpu
	return res, took, cpu
}

// reapEvery is how often a generator running behind its schedule checks
// its outstanding requests for completions.
const reapEvery = 50 * time.Microsecond

// openPhase offers requests open loop at rate (cluster-wide, split evenly
// over the lanes, each a Poisson stream) for d, timing each from its due
// time, and then drains.
//
// One goroutine issues for every lane. It spins until the next request is
// due, because Go timer sleeps on Linux wake at millisecond granularity (a
// 50 µs sleep oversleeps by about 1 ms on a 2-vCPU VM); a spinning
// goroutine per worker would keep every P of a two-CPU host busy, and with
// no idle P the runtime polls the network only from sysmon, every 10 ms,
// which is where the shared-memory doorbells' wakeups wait. With one
// spinning generator the other P stays free for the servers and the
// poller. Requests are issued asynchronously, so a stalled one holds back
// no later arrival; a request whose keys are all leased completes inside
// MultiGet.
func openPhase(lanes []*lane, rate float64, d time.Duration) *phaseResult {
	// Start from a collected heap with room for every sample, so no phase
	// inherits another's garbage or grows its buffers while timing.
	runtime.GC()
	res := newPhaseResult()
	expect := int(rate*d.Seconds()*1.25) + 1024
	res.sojourns = make([]float64, 0, expect)
	res.lags = make([]float64, 0, expect)
	nsPerUnit := float64(time.Second) / (rate / float64(len(lanes)))
	for _, l := range lanes {
		l.next, l.due = l.takeNext(0, nsPerUnit)
	}
	origin := time.Now().Add(time.Millisecond)
	end := int64(d)
	var busy []*slot
	var lastReap int64
	reap := func() int {
		n := 0
		kept := busy[:0]
		for _, s := range busy {
			if done, err := s.f.TryWait(); done {
				complete(origin, s, err, end, res)
				n++
				continue
			}
			kept = append(kept, s)
		}
		clear(busy[len(kept):])
		busy = kept
		return n
	}
	for {
		l := lanes[0]
		for _, o := range lanes[1:] {
			if o.due < l.due {
				l = o
			}
		}
		due := int64(l.due)
		if due > end {
			break
		}
		res.scheduled++
		now := int64(time.Since(origin))
		for now < due {
			if reap() == 0 {
				runtime.Gosched()
			}
			now = int64(time.Since(origin))
			lastReap = now
		}
		// A generator running behind never enters the wait loop; it still
		// reaps every reapEvery, so a completion is timestamped at most
		// that late. A pass per request would cost it more than the gap
		// between arrivals at the top rungs and make it the bottleneck.
		if now-lastReap >= int64(reapEvery) {
			reap()
			lastReap = now
		}
		res.lags = append(res.lags, float64(now-due)/1e3)
		s := l.getSlot()
		s.due = due
		l.reqID++
		s.req = l.reqID
		if l.traced != nil {
			s.span = l.traced.buf.t.newID()
			l.traced.within(s.span, s.req)
		}
		s.f = l.h.MultiGet(l.next.keys, s.buf)
		if done, err := s.f.TryWait(); done {
			complete(origin, s, err, end, res)
		} else {
			busy = append(busy, s)
			res.outstandingMax = max(res.outstandingMax, len(busy))
		}
		l.push(l.next, res)
		l.next, l.due = l.takeNext(l.due, nsPerUnit)
	}
	for len(busy) > 0 {
		if reap() == 0 {
			runtime.Gosched()
		}
	}
	for _, l := range lanes {
		if err := l.h.WaitAll(); err != nil {
			res.failed++
		}
	}
	sort.Float64s(res.sojourns)
	sort.Float64s(res.lags)
	return res
}

// takeNext returns the lane's next request and its due time after prev.
func (l *lane) takeNext(prev, nsPerUnit float64) (request, float64) {
	req, gap := l.stream.take()
	return req, prev + gap*nsPerUnit
}

// complete records a finished request and returns its slot to its lane.
func complete(origin time.Time, s *slot, err error, end int64, res *phaseResult) {
	now := int64(time.Since(origin))
	if err != nil {
		res.failed++
	} else {
		res.sojourns = append(res.sojourns, float64(now-s.due)/1e3)
	}
	if now <= end {
		res.completedByEnd++
	}
	l := s.lane
	if t := l.traced; t != nil {
		t.buf.spans = append(t.buf.spans, span{id: s.span, req: s.req, kind: kindRequest,
			start: int64(origin.Sub(t.buf.t.origin)) + s.due, end: t.buf.t.now()})
	}
	s.f = nil
	l.free = append(l.free, s)
}

// rung is one measured ladder step.
type rung struct {
	rate    float64
	p99     float64
	backlog bool
}

func (r rung) meets(limit time.Duration) bool {
	return !r.backlog && r.p99 <= float64(limit)/1e3
}

// searchRate climbs the ladder until a rung fails, then bisects between the
// last passing and the first failing rate refine times (at geometric
// midpoints), measuring each rate once. It returns the highest rate that met
// the limit without a growing backlog (0 when the first rung failed) and
// every rung measured.
func searchRate(ladder []float64, refine int, limit time.Duration, measure func(rate float64) rung) (float64, []rung) {
	var rungs []rung
	pass, fail := 0.0, 0.0
	for _, rate := range ladder {
		r := measure(rate)
		rungs = append(rungs, r)
		if !r.meets(limit) {
			fail = rate
			break
		}
		pass = rate
	}
	if pass == 0 || fail == 0 {
		return pass, rungs
	}
	for i := 0; i < refine; i++ {
		mid := math.Sqrt(pass * fail)
		r := measure(mid)
		rungs = append(rungs, r)
		if r.meets(limit) {
			pass = mid
		} else {
			fail = mid
		}
	}
	return pass, rungs
}

// checkServed reads every key back through worker 0's Pull once all writes
// have drained and returns how many differ from their initial value plus the
// writes sent to them.
func checkServed(sys *system, cfg serveConfig, pushes map[kv.Key]int64) (bad int64, err error) {
	h := sys.ps.Handle(0)
	l := cfg.load
	got := make([]float32, l.ValLen)
	want := make([]float32, l.ValLen)
	keys := make([]kv.Key, 1)
	for k := kv.Key(0); k < l.Keys; k++ {
		keys[0] = k
		if err := h.Pull(keys, got); err != nil {
			return 0, fmt.Errorf("read back key %d: %w", k, err)
		}
		serveInit(k, want)
		for i := range want {
			want[i] += float32(pushes[k]) * pushDelta
		}
		for i := range want {
			if got[i] != want[i] {
				bad++
				break
			}
		}
	}
	return bad, nil
}

func serveOptions(cfg serveConfig) driver.Options {
	return driver.Options{Serving: &core.ServingConfig{TTL: cfg.load.TTL}}
}
