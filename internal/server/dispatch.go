package server

import (
	"time"

	"lapse/internal/kv"
	"lapse/internal/msg"
)

// KeyRoute is a Router's verdict for one key of a worker operation.
type KeyRoute struct {
	// Served marks the key as already served through the variant's
	// shared-memory fast path; no message is sent and the key counts as
	// done immediately.
	Served bool
	// Enqueued marks the key as queued by the variant (e.g. on a Lapse
	// relocation queue); the queued entry completes the key through the
	// operation ID later.
	Enqueued bool
	// Dest is the node the key's request must be sent to (when neither
	// Served nor Enqueued).
	Dest int
	// ViaCache marks requests routed via a location-cache entry, which the
	// receiver uses for stale-cache handling.
	ViaCache bool
}

// Router is the variant's per-key routing policy for worker operations: it
// may serve a key locally, queue it, or name the node to contact. Routers
// run on the issuing worker's goroutine and do their own stats accounting,
// since what counts as a "local" access differs between variants. A router
// that queues a key must obtain the key's pending-operation ID through
// op.ID(k) before publishing the queued entry.
type Router interface {
	RouteKey(t msg.OpType, op *OpCtx, k kv.Key, dst, vals []float32) KeyRoute
}

// OpCtx is the in-flight state of one DispatchOp call. Its pending-operation
// parts register lazily: a shard's part (and the operation's aggregate) is
// created only when the first of its keys actually needs the pending table —
// an operation whose keys are all served through the fast path registers
// nothing and completes without a single allocation.
type OpCtx struct {
	nd       *Node
	t        msg.OpType
	lease    bool // read-only dispatch requesting serving-tier leases
	keys     []kv.Key
	dst      []float32
	offs     []int32  // per-occurrence offset into dst/vals
	fastDone []bool   // occurrences already served via the fast path
	counts   []int    // keys per shard
	ids      []uint64 // registered part IDs per shard (0 = unregistered)
	agg      *Agg
	cur      int // occurrence index currently being routed
}

// Lease reports whether this operation is a read-only dispatch
// (DispatchOpRO) whose remote pulls request serving-tier leases; routers
// use it to consult the node's leases before paying the network.
func (c *OpCtx) Lease() bool { return c.lease }

// ID returns the pending-operation ID of key k's shard part, registering the
// part first if this is the shard's first non-fast-path key. Routers call it
// when queueing a key; the registration happens before the queued entry is
// published, so a concurrent queue drain always finds the slot.
func (c *OpCtx) ID(k kv.Key) uint64 {
	return c.ensure(msg.ShardOfKey(k, len(c.nd.shards)))
}

// Off returns the offset of the occurrence currently being routed into the
// operation's dst/vals buffer. Routers that queue a key record it so a
// locally applied queue drain can claim its occurrence (Pending.ClaimOffset).
func (c *OpCtx) Off() int32 { return c.offs[c.cur] }

// ensure registers shard s's operation part on first use and returns its ID.
// The part is registered for all of the shard's keys (fast-path keys are
// finished in bulk at the end of DispatchOp); for pulls it carries the
// per-occurrence offset table responses fill through. Occurrences already
// served through the fast path are excluded — they will never be answered,
// and a stale entry for one would misdirect the response of a duplicate
// occurrence of the same key.
func (c *OpCtx) ensure(s int) uint64 {
	if c.ids[s] != 0 {
		return c.ids[s]
	}
	if c.agg == nil {
		c.agg = NewAgg()
	}
	var entries []OpEntry
	if c.t == msg.OpPull && c.dst != nil {
		nShards := len(c.nd.shards)
		entries = make([]OpEntry, 0, c.counts[s])
		for i, k := range c.keys {
			if !c.fastDone[i] && msg.ShardOfKey(k, nShards) == s {
				entries = append(entries, OpEntry{Key: k, Off: c.offs[i]})
			}
		}
	}
	id := c.nd.shards[s].pending.RegisterOpPart(c.agg, c.counts[s], c.dst, entries)
	c.ids[s] = id
	return id
}

// sendGroup accumulates the keys of one outgoing message: a destination
// node, the server shard every key of the group belongs to, and the
// cache-routing flag. The key/value backing arrays are scratch, reused
// across operations.
type sendGroup struct {
	node     int
	shard    int
	viaCache bool
	keys     []kv.Key
	vals     []float32
}

// dispatchScratch is the per-handle reusable state of DispatchOp. Handles
// are bound to one worker thread, so none of this needs locking; steady
// state dispatch reuses every slice and sends through one reusable message
// struct (transports encode synchronously and retain nothing).
type dispatchScratch struct {
	ctx      OpCtx
	offs     []int32
	fastDone []bool
	counts   []int
	served   []int
	ids      []uint64
	groups   []sendGroup
	op       msg.Op
	kbuf     []kv.Key // single-key list for unbatched sends
	lease    bool     // next DispatchOp is a read-only lease dispatch
}

func (ds *dispatchScratch) reset(nShards, nKeys int) {
	if cap(ds.offs) < nKeys {
		ds.offs = make([]int32, nKeys)
		ds.fastDone = make([]bool, nKeys)
	}
	ds.offs = ds.offs[:nKeys]
	ds.fastDone = ds.fastDone[:nKeys]
	clear(ds.fastDone)
	if len(ds.counts) != nShards {
		ds.counts = make([]int, nShards)
		ds.served = make([]int, nShards)
		ds.ids = make([]uint64, nShards)
	} else {
		clear(ds.counts)
		clear(ds.served)
		clear(ds.ids)
	}
	ds.groups = ds.groups[:0]
}

// group returns the accumulator for (node, shard, viaCache), reusing a
// retired group's backing arrays when possible. The number of live groups is
// the number of distinct destinations of one operation — small — so a linear
// scan beats a map.
func (ds *dispatchScratch) group(node, shard int, viaCache bool) *sendGroup {
	for i := range ds.groups {
		g := &ds.groups[i]
		if g.node == node && g.shard == shard && g.viaCache == viaCache {
			return g
		}
	}
	if len(ds.groups) < cap(ds.groups) {
		ds.groups = ds.groups[:len(ds.groups)+1]
	} else {
		ds.groups = append(ds.groups, sendGroup{})
	}
	g := &ds.groups[len(ds.groups)-1]
	g.node, g.shard, g.viaCache = node, shard, viaCache
	g.keys = g.keys[:0]
	g.vals = g.vals[:0]
	return g
}

// DispatchOp issues one multi-key pull or push on behalf of this handle's
// worker thread: it routes each key through the variant's Router and sends
// the keys that need the network batched into one msg.Op envelope per
// (destination node, shard) — so every message is shard-pure and lands
// directly in the serving shard's inbox — or one envelope per key when
// batching is disabled. The returned future completes when every key has
// been served, whether by the fast path, a queued entry, or a response
// message.
//
// Pending-operation parts register lazily through the OpCtx: a shard's part
// exists only if one of its keys was queued or sent, and it is always
// registered before the queued entry or message that could complete it, so a
// fast server shard cannot complete the future while later keys are still
// being routed. Offsets are tracked per key occurrence (OpEntry), so an
// operation that names a key twice reads/writes both regions correctly.
func (h *Handle) DispatchOp(r Router, t msg.OpType, keys []kv.Key, dst, vals []float32) *kv.Future {
	if len(keys) == 0 {
		return kv.CompletedFuture(nil)
	}
	// End-to-end latency: operations that leave the fast path are always
	// timed (dispatch to future completion, observed in Agg.finish); the
	// all-fast-path case pays the clock reads only for 1 in fastSampleEvery
	// operations and records them with matching weight, so the merged
	// distribution stays unbiased while unsampled fast ops stay clock-free.
	var start time.Time
	kind := 0
	if t == msg.OpPush {
		kind = 1
	}
	h.opSeq[kind]++
	sampled := h.lat != nil && h.opSeq[kind]&(fastSampleEvery-1) == 0
	if sampled {
		start = nowFunc()
	}
	nd := h.nd
	layout := nd.g.layout
	nShards := len(nd.shards)
	ds := &h.ds
	ds.reset(nShards, len(keys))
	off := 0
	for i, k := range keys {
		ds.offs[i] = int32(off)
		off += layout.Len(k)
		ds.counts[msg.ShardOfKey(k, nShards)]++
	}
	ctx := &ds.ctx
	*ctx = OpCtx{nd: nd, t: t, lease: ds.lease, keys: keys, dst: dst, offs: ds.offs, fastDone: ds.fastDone,
		counts: ds.counts, ids: ds.ids}

	for i, k := range keys {
		l := layout.Len(k)
		o := int(ds.offs[i])
		shard := msg.ShardOfKey(k, nShards)
		var kdst, kvals []float32
		if t == msg.OpPull {
			kdst = dst[o : o+l]
		} else {
			kvals = vals[o : o+l]
		}
		ctx.cur = i
		route := r.RouteKey(t, ctx, k, kdst, kvals)
		if !route.Served && h.lat != nil && start.IsZero() {
			// First key that leaves the fast path: this operation will be
			// timed end-to-end, so capture its start now (the routed prefix
			// cost nanoseconds against a network-bound completion).
			start = nowFunc()
		}
		switch {
		case route.Served:
			ds.served[shard]++
			ds.fastDone[i] = true
			if ds.ids[shard] != 0 {
				// The shard's part is already registered, so this
				// occurrence has an offset entry; claim it so a duplicate
				// occurrence's response cannot be misdirected onto the
				// region the fast path just served.
				nd.shards[shard].pending.ClaimOffset(ds.ids[shard], k, ds.offs[i])
			}
		case route.Enqueued:
			// The router registered the part via op.ID; the queued entry
			// completes the key through the pending table later.
		case nd.g.cfg.Unbatched:
			id := ctx.ensure(shard)
			ds.kbuf = append(ds.kbuf[:0], k)
			op := &ds.op
			*op = msg.Op{Type: t, ID: id, Origin: int32(nd.node), ViaCache: route.ViaCache, Lease: ctx.lease, Keys: ds.kbuf, Vals: kvals}
			nd.Send(route.Dest, op)
		default:
			g := ds.group(route.Dest, shard, route.ViaCache)
			g.keys = append(g.keys, k)
			if t == msg.OpPush {
				g.vals = append(g.vals, kvals...)
			}
		}
	}
	for gi := range ds.groups {
		g := &ds.groups[gi]
		id := ctx.ensure(g.shard)
		var gv []float32
		if t == msg.OpPush {
			gv = g.vals
		}
		op := &ds.op
		*op = msg.Op{Type: t, ID: id, Origin: int32(nd.node), ViaCache: g.viaCache, Lease: ctx.lease, Keys: g.keys, Vals: gv}
		nd.Send(g.node, op)
	}
	for s := 0; s < nShards; s++ {
		if ds.ids[s] != 0 && ds.served[s] > 0 {
			nd.shards[s].pending.FinishKeys(ds.ids[s], ds.served[s])
		}
	}
	if ctx.agg == nil {
		// Every key was served through the fast path: nothing registered,
		// nothing to wait for.
		if sampled {
			lat := &h.lat.PullFast
			if t == msg.OpPush {
				lat = &h.lat.PushFast
			}
			lat.ObserveN(nowFunc().Sub(start), fastSampleEvery)
		}
		return kv.CompletedFuture(nil)
	}
	if h.lat != nil {
		lat := &h.lat.PullSlow
		if t == msg.OpPush {
			lat = &h.lat.PushSlow
		}
		ctx.agg.Time(lat, start)
	}
	return ctx.agg.Seal(nil)
}

// fastSampleEvery is the fast-path latency sampling period: all-fast-path
// operations are timed once every fastSampleEvery calls per worker, with
// observations weighted by the period. Must be a power of two.
const fastSampleEvery = 8

// DispatchOpRO issues a read-only multi-key pull whose remote slices request
// serving-tier leases (Op.Lease): the router sees OpCtx.Lease and may serve
// keys from the node's live leases, and residual remote pulls install
// leases for the next call. Everything else — batching, lazy pending-table
// registration, the zero-allocation all-fast-path completion — is DispatchOp.
func (h *Handle) DispatchOpRO(r Router, keys []kv.Key, dst []float32) *kv.Future {
	h.ds.lease = true
	f := h.DispatchOp(r, msg.OpPull, keys, dst, nil)
	h.ds.lease = false
	return f
}
