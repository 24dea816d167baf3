package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"lapse/internal/driver"
	"lapse/internal/kv"
)

// The client calls whose spans the traced run records, in report order.
const (
	callPull = iota
	callPush
	callPushAsync
	callLocalize
	callLocalizeAsync
	callPullIfLocal
	callWaitAll
	callBarrier
	callMultiGet
	numCalls
)

var callNames = [numCalls]string{
	"pull", "push", "push_async", "localize", "localize_async",
	"pull_if_local", "wait_all", "barrier", "multi_get",
}

// Span kinds above the client calls: a worker's training epoch and a serving
// request.
const (
	kindEpoch = numCalls + iota
	kindRequest
)

func spanName(kind int) string {
	switch kind {
	case kindEpoch:
		return "ml.epoch"
	case kindRequest:
		return "loadgen.request"
	}
	return "client." + callNames[kind]
}

// span is one recorded interval. Times are nanoseconds since the tracer's
// origin; parent is the id of the span that caused this one (0 for a root)
// and req the request id every span of one epoch or request shares.
type span struct {
	id, parent, req int64
	kind            int
	start, end      int64
}

// tracer collects spans in memory from every traced handle and writes them
// out once the run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	nextID int64
	bufs   []*spanBuf
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// spanBuf is one goroutine's span log; only its owner appends to it.
type spanBuf struct {
	t     *tracer
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// newBuf registers a span log for one goroutine.
func (t *tracer) newBuf() *spanBuf {
	b := &spanBuf{t: t, spans: make([]span, 0, 1<<12)}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// newID returns an unused span id.
func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// all returns every recorded span ordered by start time.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// write stores every span, one tab-separated line each:
// id, parent, request id, name, start ns, end ns.
func (t *tracer) write(path string) (int, error) {
	spans := t.all()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.req, spanName(s.kind), s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(spans), f.Close()
}

// tracedPS wraps a driver.PS so every handle it returns records a span per
// client call. Each Handle call opens a new epoch span: the ML tasks fetch
// their worker's handle once per epoch, so an epoch's client calls become
// its children.
type tracedPS struct {
	driver.PS
	t *tracer

	mu      sync.Mutex
	handles []*tracedKV
}

func (p *tracedPS) Handle(worker int) kv.KV {
	h := &tracedKV{KV: p.PS.Handle(worker), buf: p.t.newBuf()}
	h.mg, _ = h.KV.(multiGetter)
	h.parent = p.t.newID()
	h.req = h.parent
	h.epochStart = p.t.now()
	h.epochEnd = h.epochStart
	p.mu.Lock()
	p.handles = append(p.handles, h)
	p.mu.Unlock()
	return h
}

// closeEpochs turns every handle opened so far into a finished epoch span,
// ending at its last client call, and forgets the handles.
func (p *tracedPS) closeEpochs() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, h := range p.handles {
		h.buf.spans = append(h.buf.spans, span{id: h.parent, req: h.req, kind: kindEpoch,
			start: h.epochStart, end: h.epochEnd})
	}
	p.handles = nil
}

// multiGetter is the serving-tier read call of a Lapse handle.
type multiGetter interface {
	MultiGet(keys []kv.Key, dst []float32) *kv.Future
}

// tracedKV times every call of one worker's handle.
type tracedKV struct {
	kv.KV
	mg  multiGetter
	buf *spanBuf

	parent, req          int64
	epochStart, epochEnd int64
}

// within makes later calls children of span parent in request req (the
// serving load generator sets it per request).
func (h *tracedKV) within(parent, req int64) { h.parent, h.req = parent, req }

func (h *tracedKV) record(kind int, start int64) {
	end := h.buf.t.now()
	h.epochEnd = end
	h.buf.spans = append(h.buf.spans, span{parent: h.parent, req: h.req, kind: kind, start: start, end: end})
}

func (h *tracedKV) Pull(keys []kv.Key, dst []float32) error {
	s := h.buf.t.now()
	err := h.KV.Pull(keys, dst)
	h.record(callPull, s)
	return err
}

func (h *tracedKV) Push(keys []kv.Key, vals []float32) error {
	s := h.buf.t.now()
	err := h.KV.Push(keys, vals)
	h.record(callPush, s)
	return err
}

func (h *tracedKV) PushAsync(keys []kv.Key, vals []float32) *kv.Future {
	s := h.buf.t.now()
	f := h.KV.PushAsync(keys, vals)
	h.record(callPushAsync, s)
	return f
}

func (h *tracedKV) Localize(keys []kv.Key) error {
	s := h.buf.t.now()
	err := h.KV.Localize(keys)
	h.record(callLocalize, s)
	return err
}

func (h *tracedKV) LocalizeAsync(keys []kv.Key) *kv.Future {
	s := h.buf.t.now()
	f := h.KV.LocalizeAsync(keys)
	h.record(callLocalizeAsync, s)
	return f
}

func (h *tracedKV) PullIfLocal(keys []kv.Key, dst []float32) (bool, error) {
	s := h.buf.t.now()
	ok, err := h.KV.PullIfLocal(keys, dst)
	h.record(callPullIfLocal, s)
	return ok, err
}

func (h *tracedKV) WaitAll() error {
	s := h.buf.t.now()
	err := h.KV.WaitAll()
	h.record(callWaitAll, s)
	return err
}

func (h *tracedKV) Barrier() {
	s := h.buf.t.now()
	h.KV.Barrier()
	h.record(callBarrier, s)
}

func (h *tracedKV) MultiGet(keys []kv.Key, dst []float32) *kv.Future {
	s := h.buf.t.now()
	f := h.mg.MultiGet(keys, dst)
	h.record(callMultiGet, s)
	return f
}

// callStats summarises the spans of one client call.
type callStats struct {
	calls    int64
	busy     time.Duration
	p50, p99 float64 // µs
}

// summariseCalls returns per-call statistics over spans.
func summariseCalls(spans []span) [numCalls]callStats {
	var durs [numCalls][]float64
	var out [numCalls]callStats
	for _, s := range spans {
		if s.kind >= numCalls {
			continue
		}
		d := s.end - s.start
		durs[s.kind] = append(durs[s.kind], float64(d)/1e3)
		out[s.kind].calls++
		out[s.kind].busy += time.Duration(d)
	}
	for k := range durs {
		sort.Float64s(durs[k])
		out[k].p50 = quantile(durs[k], 0.5)
		out[k].p99 = quantile(durs[k], tailPercentile(len(durs[k]), 0.5, 0.9, 0.99))
	}
	return out
}

// epochSelfTimes returns, per epoch span, its duration minus the union of
// its child client spans.
func epochSelfTimes(spans []span) []time.Duration {
	children := map[int64][]interval{}
	var epochs []span
	for _, s := range spans {
		switch {
		case s.kind == kindEpoch:
			epochs = append(epochs, s)
		case s.kind < numCalls:
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	out := make([]time.Duration, 0, len(epochs))
	for _, e := range epochs {
		out = append(out, selfTime(e.start, e.end, children[e.id]))
	}
	return out
}
