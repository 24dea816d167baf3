package core

import (
	"sync"
	"time"

	"lapse/internal/kv"
	"lapse/internal/msg"
)

// Serving tier: lease-based client-side read caching (see DESIGN.md
// "Serving tier").
//
// A read-mostly serving workload pulls the same hot keys over and over from
// every node. The relocation protocol cannot make such keys local everywhere
// at once, and replication pays a continuous sync cycle even for keys that
// are almost never written. The serving tier adds a read-only path: when a
// MultiGet misses every local fast path, the remote pull asks the key's owner
// for a *lease* (Op.Lease); the owner answers with the value and a TTL
// (OpResp.LeaseTTL), and the origin installs the value as a leased entry of
// its copy table (replication.Manager, which also holds its replicas). Until
// the lease expires or is revoked, MultiGets of the key are shared-memory
// reads with zero pending-table registration.
//
// Correctness:
//
//   - Read-your-writes: every Push write-through-drops the pusher's own lease
//     on the key before the update is routed (handle.RouteKey), and the
//     owner's revocation pass notifies every live holder *including the
//     writer's node* — a grant can still be in flight to the writer (its own
//     leased pull processed by the owner just before the push), and only a
//     chasing revoke, delivered on the same (link, shard) FIFO stream before
//     the push ack, stops that grant from re-installing the pre-write value.
//     So a node never reads its own stale write from a lease (synchronous
//     operations; asynchronous pipelining keeps the same caveats it has
//     without leases).
//   - Cross-node invalidation: the owner tracks lease holders per key and
//     revokes on writes, on relocation (transfer-out), and on promotion into
//     replication. All three travel as key-addressed Manage messages of kind
//     ManageRevoke — FIFO, per (link, shard), with the grant they chase; a
//     promotion's revokes go out ahead of its ManageReplicate broadcast on
//     the same streams, so a holder drops its lease before it installs the
//     replica (and a replica entered over a lease would replace it in place
//     anyway: both live in the one copy table). One grant-side race is
//     deliberately tolerated (see writeOwned), so revoke-on-write is
//     best-effort against owner-local writes; the staleness stays inside the
//     TTL bound below.
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
// the fast-path flag are cleared, and each live holder is sent a ManageRevoke
// (key-addressed, so it stays FIFO with the grant response it chases on the
// holder's (link, shard) stream). Safe from shard goroutines and worker
// threads.
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
		nd.srv.Send(dest, &msg.Manage{Kind: msg.ManageRevoke, Origin: int32(nd.id), Keys: []kv.Key{k}})
	}
}

// writeOwned applies a cumulative update to a key owned here (a worker's
// fast-path push, or a remote push on a shard goroutine) and withdraws the
// key's leases; the flag check keeps the unleased path off the registry
// lock. It reports false, applying nothing, when the key is not in the store.
//
// A remote writer's node is not skipped: its write-through drop covers only
// the lease already installed there, while a grant carrying the pre-write
// value may still be in flight to it, and only a revoke sent now — chasing
// that grant ahead of the push ack — keeps the writer's read-your-writes.
//
// One race is tolerated: a shard goroutine serving a remote leased pull can
// read the pre-write value and register the lease after a concurrent
// owner-local write saw leased[k]==0 and skipped revocation; that holder
// keeps the pre-write value until its lease expires, inside the TTL bound.
func (nd *node) writeOwned(k kv.Key, vals []float32) bool {
	if !nd.store.Add(k, vals) {
		return false
	}
	if nd.leased != nil && nd.leased[k].Load() != 0 {
		nd.revokeLeases(k)
	}
	return true
}
