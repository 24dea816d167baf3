package core

import (
	"sync"
	"time"

	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/msg"
)

// Serving tier: lease-based client-side read caching (see DESIGN.md
// "Serving tier").
//
// A read-mostly serving workload pulls the same hot keys over and over from
// every node. The relocation protocol cannot make such keys local everywhere
// at once, and replication pays a continuous sync cycle even for keys that
// are almost never written. The serving tier adds a third, read-only path:
// when a MultiGet misses every local fast path, the remote pull asks the
// key's owner for a *lease* (Op.Lease); the owner answers with the value and
// a TTL (OpResp.LeaseTTL), and the origin installs the value in a node-local
// serving cache. Until the lease expires or is revoked, MultiGets of the key
// are shared-memory reads with zero pending-table registration.
//
// Correctness:
//
//   - Read-your-writes: every Push write-through-invalidates the pusher's own
//     cache entry before the update is routed (handle.RouteKey), and the
//     owner's revocation pass notifies every live holder *including the
//     writer's node* — a grant can still be in flight to the writer (its own
//     leased pull processed by the owner just before the push), and only a
//     chasing revoke, delivered on the same (link, shard) FIFO stream before
//     the push ack, stops that grant from re-installing the pre-write value.
//     So a node never reads its own stale write from its cache (synchronous
//     operations; asynchronous pipelining keeps the same caveats it has
//     without the cache).
//   - Cross-node invalidation: the owner tracks lease holders per key and
//     revokes on writes, on relocation (transfer-out), and on promotion into
//     replication. All three travel as key-addressed LeaseRevoke messages —
//     FIFO, per (link, shard), with the grant they chase; a promotion's
//     revokes go out ahead of its ManageReplicate broadcast on the same
//     streams, so a holder drops its lease before it installs the replica.
//     One grant-side race is
//     deliberately tolerated: a shard goroutine serving a remote leased pull
//     can read the pre-write value and register the lease after a concurrent
//     owner-local write saw leased[k]==0 and skipped revocation, so that one
//     remote holder keeps the pre-write value until its lease expires.
//     Revoke-on-write is therefore best-effort against owner-local writes;
//     the staleness stays inside the TTL bound below.
//   - Staleness bound: a served read lags a write by at most the lease TTL
//     (plus one message latency for in-flight reads) — whether the revoke was
//     lost with its message or never sent (the grant race above) — matching
//     the eventual-consistency window replication already accepts.
type ServingConfig struct {
	// TTL is the lease duration granted to caching clients. Longer TTLs mean
	// higher hit rates and a larger worst-case staleness window for reads of
	// keys whose revocation message was lost. 0 = DefaultLeaseTTL; capped at
	// what the wire's microsecond field can carry (~71 minutes).
	TTL time.Duration
}

// DefaultLeaseTTL is the lease duration used when ServingConfig.TTL is zero.
const DefaultLeaseTTL = 100 * time.Millisecond

// maxLeaseTTL is the largest TTL the wire's uint32 microsecond field can
// carry.
const maxLeaseTTL = time.Duration(1<<32-1) * time.Microsecond

// ttlMicros returns the configured lease TTL in wire form (microseconds).
func (c *ServingConfig) ttlMicros() uint32 {
	ttl := c.TTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	if ttl > maxLeaseTTL {
		ttl = maxLeaseTTL
	}
	return uint32(ttl / time.Microsecond)
}

// servingStripes is the lock striping of the serving cache. Power of two;
// spreads concurrent workers of one node across locks.
const servingStripes = 64

// cacheEntry is one leased value in the serving cache.
type cacheEntry struct {
	expiry int64 // UnixNano deadline
	vals   []float32
}

// servingCache is a node's client-side serving cache: leased values of
// remote hot keys, readable by every worker of the node. Reads, installs,
// and invalidations synchronize per stripe; the hit path (get) does one lock
// round trip, one map lookup, and one copy — no allocation.
type servingCache struct {
	stripes [servingStripes]struct {
		mu      sync.Mutex
		entries map[kv.Key]*cacheEntry
	}
}

func newServingCache() *servingCache {
	c := &servingCache{}
	for i := range c.stripes {
		c.stripes[i].entries = make(map[kv.Key]*cacheEntry)
	}
	return c
}

// get copies the cached value of k into dst if a live lease covers it.
// Expired entries are dropped on the way.
func (c *servingCache) get(k kv.Key, dst []float32) bool {
	st := &c.stripes[uint64(k)&(servingStripes-1)]
	st.mu.Lock()
	e, ok := st.entries[k]
	if !ok {
		st.mu.Unlock()
		return false
	}
	if e.expiry < time.Now().UnixNano() {
		delete(st.entries, k)
		st.mu.Unlock()
		return false
	}
	copy(dst, e.vals)
	st.mu.Unlock()
	return true
}

// install stores (or refreshes) the lease entry of k with value v, valid for
// ttlMicros microseconds from now. v is copied: it aliases a decode scratch
// at the call site.
func (c *servingCache) install(k kv.Key, v []float32, ttlMicros uint32) {
	expiry := time.Now().UnixNano() + int64(ttlMicros)*1000
	st := &c.stripes[uint64(k)&(servingStripes-1)]
	st.mu.Lock()
	e, ok := st.entries[k]
	if !ok {
		e = &cacheEntry{vals: make([]float32, len(v))}
		st.entries[k] = e
	} else if cap(e.vals) < len(v) {
		e.vals = make([]float32, len(v))
	}
	e.vals = e.vals[:len(v)]
	copy(e.vals, v)
	e.expiry = expiry
	st.mu.Unlock()
}

// invalidate drops the lease entry of k, reporting whether one existed.
func (c *servingCache) invalidate(k kv.Key) bool {
	st := &c.stripes[uint64(k)&(servingStripes-1)]
	st.mu.Lock()
	_, ok := st.entries[k]
	if ok {
		delete(st.entries, k)
	}
	st.mu.Unlock()
	return ok
}

// leaseHold records the outstanding leases of one key at its owner: a bitmask
// of holder nodes and the conservative deadline after which every one of them
// has expired on its own.
type leaseHold struct {
	mask   uint64
	expiry int64 // UnixNano; latest grant's client-side deadline
}

// leaseReg is the owner-side lease registry of one node: which nodes hold
// live leases on which of its keys. Grants happen on shard goroutines
// (handleOp), revocations on shard goroutines (remote writes, relocations)
// and worker threads (a local write at the owner), so the registry is
// mutex-guarded; the per-key leased flag array lets the worker write fast
// path skip it entirely when no lease is outstanding.
type leaseReg struct {
	ttlMicros uint32
	mu        sync.Mutex
	holders   map[kv.Key]*leaseHold
}

func newLeaseReg(cfg *ServingConfig) *leaseReg {
	return &leaseReg{ttlMicros: cfg.ttlMicros(), holders: make(map[kv.Key]*leaseHold)}
}

// grantLeases records origin as a lease holder of every key in keys and
// returns the TTL (µs) to stamp on the response. Origins beyond the bitmask
// width get no lease (0).
func (nd *node) grantLeases(keys []kv.Key, origin int) uint32 {
	if origin < 0 || origin >= 64 {
		return 0
	}
	reg := nd.leases
	expiry := time.Now().UnixNano() + int64(reg.ttlMicros)*1000
	reg.mu.Lock()
	for _, k := range keys {
		h, ok := reg.holders[k]
		if !ok {
			h = &leaseHold{}
			reg.holders[k] = h
		}
		h.mask |= 1 << uint(origin)
		if expiry > h.expiry {
			h.expiry = expiry
		}
		nd.leased[k].Store(1)
	}
	reg.mu.Unlock()
	nd.srv.Shard(0).Stats().LeaseGrants.Add(int64(len(keys)))
	return reg.ttlMicros
}

// revokeLeases withdraws every outstanding lease on k: the registry entry and
// the fast-path flag are cleared, and each live holder is sent a LeaseRevoke
// (key-addressed, so it stays FIFO with the grant response it chases on the
// holder's (link, shard) stream). The holder set includes the node whose
// write triggered the revocation: its write-through invalidation only covers
// the entry already installed, while a grant from this owner may still be in
// flight to it — carrying the pre-write value — and only a chasing revoke,
// which lands before the push ack, preserves that node's read-your-writes.
// Safe from shard goroutines and worker threads.
func (nd *node) revokeLeases(k kv.Key) {
	reg := nd.leases
	reg.mu.Lock()
	h, ok := reg.holders[k]
	var mask uint64
	if ok {
		if h.expiry >= time.Now().UnixNano() {
			mask = h.mask
		}
		delete(reg.holders, k)
	}
	nd.leased[k].Store(0)
	reg.mu.Unlock()
	if mask == 0 {
		return
	}
	stats := nd.srv.Shard(0).Stats()
	for dest := 0; mask != 0; dest++ {
		if mask&(1<<uint(dest)) == 0 {
			continue
		}
		mask &^= 1 << uint(dest)
		if dest == nd.id {
			continue // self-grants are never recorded; defensive
		}
		stats.LeaseRevokes.Inc()
		nd.srv.Send(dest, &msg.LeaseRevoke{Origin: int32(nd.id), Keys: []kv.Key{k}})
	}
}

// servingInvalidate drops the local cache entries of keys after a LeaseRevoke
// arrived.
func (nd *node) servingInvalidate(keys []kv.Key, c *metrics.Counter) {
	if nd.serving == nil {
		return
	}
	for _, k := range keys {
		if nd.serving.invalidate(k) {
			c.Inc()
		}
	}
}
