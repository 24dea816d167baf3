package core

import (
	"testing"
	"time"

	"lapse/internal/adaptive"
	"lapse/internal/cluster"
	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/simnet"
)

// servingTestConfig enables the serving tier with a TTL long enough that any
// cache-consistency effect a test observes inside its deadline is due to
// explicit invalidation, never lease expiry.
func servingTestConfig() Config {
	return Config{Serving: &ServingConfig{TTL: 30 * time.Second}}
}

// servingKV is a worker handle with the serving-tier read path.
type servingKV interface {
	kv.KV
	MultiGet(keys []kv.Key, dst []float32) *kv.Future
}

// TestMultiGetServedFromLeaseCache pins the serving read path: the first
// MultiGet of a remote key misses, travels with a lease request, and installs
// the granted value; the second is served from the node-local cache without
// another remote read.
func TestMultiGetServedFromLeaseCache(t *testing.T) {
	_, sys := newTestSystem(t, 2, 1, 8, 2, servingTestConfig())
	h := sys.Handle(0).(servingKV)
	keys := []kv.Key{6} // homed at node 1
	if err := h.Push(keys, []float32{1, 2}); err != nil {
		t.Fatal(err)
	}
	buf := make([]float32, 2)
	if err := h.MultiGet(keys, buf).Wait(); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 || buf[1] != 2 {
		t.Fatalf("first MultiGet = %v, want [1 2]", buf)
	}
	remoteAfterMiss := sys.Stats()[0].RemoteReads.Load()
	if sys.Stats()[1].LeaseGrants.Load() == 0 {
		t.Fatal("home node granted no lease for the missed read")
	}
	buf[0], buf[1] = -1, -1
	if err := h.MultiGet(keys, buf).Wait(); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 || buf[1] != 2 {
		t.Fatalf("cached MultiGet = %v, want [1 2]", buf)
	}
	if got := sys.Stats()[0].ServingHits.Load(); got != 1 {
		t.Fatalf("serving hits = %d, want 1", got)
	}
	if got := sys.Stats()[0].RemoteReads.Load(); got != remoteAfterMiss {
		t.Fatalf("cached MultiGet went remote: %d -> %d remote reads", remoteAfterMiss, got)
	}
}

// TestMultiGetAllHitZeroAlloc is the regression gate for the serving-tier
// fast path: a steady-state MultiGet whose keys are all served from the
// lease cache must not allocate — no pending-table registration, no future,
// no per-request state (kv.CompletedFuture end to end).
func TestMultiGetAllHitZeroAlloc(t *testing.T) {
	_, sys := newTestSystem(t, 2, 1, 16, 2, servingTestConfig())
	h := sys.Handle(0).(servingKV)
	keys := []kv.Key{9, 11, 13, 15} // all homed at node 1
	buf := make([]float32, 2*len(keys))
	// Warm the cache: the first MultiGet misses and installs leases.
	if err := h.MultiGet(keys, buf).Wait(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := h.MultiGet(keys, buf).Wait(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("all-hit MultiGet allocates %.1f times per op, want 0", n)
	}
	if sys.Stats()[0].ServingHits.Load() < 100 {
		t.Fatalf("serving hits = %d; the gated loop was not served from the cache",
			sys.Stats()[0].ServingHits.Load())
	}
}

// TestMultiGetReadYourWrites pins write-through invalidation: a worker's own
// Push to a cached key must invalidate the local serving-cache entry before
// the push dispatches, so the worker's next MultiGet sees its write.
func TestMultiGetReadYourWrites(t *testing.T) {
	_, sys := newTestSystem(t, 2, 1, 8, 1, servingTestConfig())
	h := sys.Handle(0).(servingKV)
	keys := []kv.Key{6} // homed at node 1
	buf := make([]float32, 1)
	if err := h.MultiGet(keys, buf).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := h.Push(keys, []float32{5}); err != nil {
		t.Fatal(err)
	}
	if err := h.MultiGet(keys, buf).Wait(); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 5 {
		t.Fatalf("MultiGet after own push = %v, want [5] (stale lease served)", buf)
	}
	if sys.Stats()[0].LeaseInvalidations.Load() == 0 {
		t.Fatal("push invalidated no serving-cache entry")
	}
}

// TestOwnerPushRevokesRemoteLease pins the home-side revocation channel: a
// write at the key's owner must revoke the lease a remote node holds, so the
// remote node's MultiGet re-reads within the test deadline — far inside the
// 30s TTL, proving the freshness came from revocation, not expiry.
func TestOwnerPushRevokesRemoteLease(t *testing.T) {
	_, sys := newTestSystem(t, 2, 1, 8, 1, servingTestConfig())
	h0, h1 := sys.Handle(0).(servingKV), sys.Handle(1)
	keys := []kv.Key{6} // homed (and owned) at node 1
	buf := make([]float32, 1)
	if err := h0.MultiGet(keys, buf).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := h1.Push(keys, []float32{7}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := h0.MultiGet(keys, buf).Wait(); err != nil {
			t.Fatal(err)
		}
		if buf[0] == 7 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("remote lease never revoked: MultiGet still returns %v", buf)
		}
		time.Sleep(time.Millisecond)
	}
	if sys.Stats()[1].LeaseRevokes.Load() == 0 {
		t.Fatal("owner recorded no lease revocation")
	}
}

// TestPushByLeaseHolderChasesItsOwnGrant pins that the owner does NOT skip
// the writing node when revoking: after node 0 — the only lease holder —
// pushes the key it holds a lease on, the owner must still send exactly one
// LeaseRevoke (to node 0). Write-through invalidation alone cannot cover a
// grant that is still in flight to the writer when the push arrives; only a
// revoke chasing that grant on the same FIFO stream, ahead of the push ack,
// keeps the writer's read-your-writes intact. Skipping the writer here would
// leave the revoke count at 0 and reopen that window.
func TestPushByLeaseHolderChasesItsOwnGrant(t *testing.T) {
	_, sys := newTestSystem(t, 2, 1, 8, 1, servingTestConfig())
	h := sys.Handle(0).(servingKV)
	keys := []kv.Key{6} // homed (and owned) at node 1
	buf := make([]float32, 1)
	if err := h.MultiGet(keys, buf).Wait(); err != nil {
		t.Fatal(err)
	}
	if sys.Stats()[1].LeaseGrants.Load() == 0 {
		t.Fatal("missed MultiGet granted no lease")
	}
	if err := h.Push(keys, []float32{3}); err != nil {
		t.Fatal(err)
	}
	if got := sys.Stats()[1].LeaseRevokes.Load(); got != 1 {
		t.Fatalf("owner sent %d revokes after the lease holder's own push, want 1 (the writer's node must be chased)", got)
	}
	if err := h.MultiGet(keys, buf).Wait(); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 3 {
		t.Fatalf("MultiGet after own push = %v, want [3]", buf)
	}
}

// TestForwardedLeasePullStillGranted pins that Op.Lease survives forwarding:
// a MultiGet of a key that relocated away from its home is routed via the
// home node and forwarded to the current owner, and the owner must still
// grant the lease — the next MultiGet of the key is a cache hit. Dropping
// the bit on the forward would silently disable the serving cache for every
// relocated key.
func TestForwardedLeasePullStillGranted(t *testing.T) {
	_, sys := newTestSystem(t, 3, 1, 9, 1, servingTestConfig())
	h0 := sys.Handle(0).(servingKV)
	h2 := sys.Handle(2)
	keys := []kv.Key{4} // homed at node 1 (9 keys range-partitioned over 3 nodes)
	if err := h2.Localize(keys); err != nil {
		t.Fatal(err)
	}
	if err := h2.Push(keys, []float32{9}); err != nil {
		t.Fatal(err)
	}
	buf := make([]float32, 1)
	if err := h0.MultiGet(keys, buf).Wait(); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 9 {
		t.Fatalf("forwarded MultiGet = %v, want [9]", buf)
	}
	if sys.Stats()[1].Forwards.Load() == 0 {
		t.Fatal("pull did not travel through the home node's forward path")
	}
	if sys.Stats()[2].LeaseGrants.Load() == 0 {
		t.Fatal("current owner granted no lease for the forwarded pull")
	}
	buf[0] = -1
	if err := h0.MultiGet(keys, buf).Wait(); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 9 {
		t.Fatalf("cached MultiGet after forward = %v, want [9]", buf)
	}
	if got := sys.Stats()[0].ServingHits.Load(); got != 1 {
		t.Fatalf("serving hits = %d, want 1 (forwarded grant never installed)", got)
	}
}

// TestPromotionRevokesRemoteLease pins the lease-revocation path of a key
// promoted into replication while a remote node holds a serving lease on it.
// With several shards per node, only a key-addressed LeaseRevoke sent ahead
// of the ManageReplicate broadcast stays FIFO with a grant still in flight on
// the key's own shard. The holder must drop its lease, then serve the key
// from its replica, and observe the owner's later write — far inside the 30s
// lease TTL, so the freshness comes from revocation and sync, never expiry.
func TestPromotionRevokesRemoteLease(t *testing.T) {
	cl := cluster.New(cluster.Config{Nodes: 2, WorkersPerNode: 1, Net: simnet.Config{Shards: 4}})
	cfg := servingTestConfig()
	cfg.Adaptive = &adaptive.Config{
		Tick:          2 * time.Millisecond,
		HotCount:      16,
		ColdCount:     1,
		MinDwellTicks: 1,
		// No share can reach 2: a hot key is always replicated, never
		// relocated, so only the promotion can revoke the lease.
		DominanceShare: 2,
		// The key must stay replicated for the rest of the test.
		ColdStreakEpochs: 1 << 20,
	}
	sys := New(cl, kv.NewUniformLayout(8, 1), cfg)
	t.Cleanup(func() {
		cl.Close()
		sys.Shutdown()
	})
	node := func(n int) metrics.Totals { return metrics.Sum(sys.NodeStats(n)) }
	h0, h1 := sys.Handle(0).(servingKV), sys.Handle(1)
	keys := []kv.Key{6} // homed at node 1
	buf := make([]float32, 1)
	if err := h0.MultiGet(keys, buf).Wait(); err != nil {
		t.Fatal(err)
	}
	if node(1).LeaseGrants == 0 {
		t.Fatal("home node granted no lease")
	}
	// Both nodes read the key until the home promotes it.
	deadline := time.Now().Add(15 * time.Second)
	for node(1).AdaptPromotions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("key never promoted: home stats %+v", node(1))
		}
		for i := 0; i < 64; i++ {
			if err := h0.Pull(keys, buf); err != nil {
				t.Fatal(err)
			}
			if err := h1.Pull(keys, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	for node(0).LeaseInvalidations == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("holder never dropped its lease: holder %+v, home %+v", node(0), node(1))
		}
		time.Sleep(time.Millisecond)
	}
	if node(1).LeaseRevokes == 0 {
		t.Fatal("home recorded no lease revocation for the promoted key")
	}
	// The holder now reads its replica, not the dropped lease.
	hits := node(0).ReplicaHits
	if err := h0.MultiGet(keys, buf).Wait(); err != nil {
		t.Fatal(err)
	}
	if node(0).ReplicaHits == hits {
		t.Fatalf("MultiGet of the promoted key was not served by the replica: %+v", node(0))
	}
	if err := h1.Push(keys, []float32{5}); err != nil {
		t.Fatal(err)
	}
	for {
		if err := h0.MultiGet(keys, buf).Wait(); err != nil {
			t.Fatal(err)
		}
		if buf[0] == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("holder never observed the owner's write: MultiGet returns %v", buf)
		}
		time.Sleep(time.Millisecond)
	}
}
