// Package core implements Lapse, the paper's parameter server with dynamic
// parameter allocation (DPA).
//
// Architecture (Figure 2, sharded): each node runs S server shard goroutines
// (S = the transport's shard count) and serves several co-located worker
// threads. Workers access node-local parameters directly through shared
// memory (striped latches); everything else flows through the network. Each
// shard owns the interleaved static key slice k ≡ s (mod S): it is the only
// goroutine on its node that serves, queues, or relocates those keys, so the
// paper's per-key ordering arguments carry over shard by shard.
//
// Location management (Section 3.5) uses the decentralized home-node
// strategy: each key has a statically assigned home node that tracks the
// key's current owner. Remote accesses use the *forward* strategy
// (Figure 5b): requester → home → owner → requester. With location caches
// enabled, requesters contact the cached owner directly (Figure 5c); a stale
// cache entry costs one extra hop via the home node (double-forward,
// Figure 5d).
//
// Relocation (Section 3.2) sends at most three messages:
//
//	requester --Localize--> home --RelocInstruct--> old owner --RelocTransfer--> requester
//
// The home node updates its owner table immediately and routes subsequent
// accesses to the requester; the requester queues all accesses for the key
// (its workers' and forwarded ones) until the transfer arrives, then drains
// the queue in arrival order. The old owner keeps processing accesses until
// the instruct arrives, which bounds blocking time by roughly one message
// latency. All three messages concern keys of one shard and travel between
// the same shard index on every node involved.
//
// Consistency (Section 3.4): synchronous operations are sequentially
// consistent per key at every shard count. For asynchronous operations,
// per-(link, shard) FIFO preserves a worker's program order through home
// and owner only *within* a shard: with a single shard and location caches
// off they are sequentially consistent exactly as the paper states; with
// multiple shards, two async operations on keys of different shards travel
// independent message loops and may apply out of program order, so the
// guarantee weakens to sequential consistency per shard (and, as always,
// per key) — eventual across shards. Location caches weaken async
// operations to eventual consistency regardless of shard count. Run with
// ServerShards = 1 to reproduce the paper's exact asynchronous guarantees.
//
// The message loops, pending-operation matching, future tracking, and
// per-(destination, shard) batching live in the shared runtime of package
// server; this package contributes the DPA policy: the per-key locality
// state machine, home/owner routing, relocation queues, and the relocation
// protocol itself. Operations this node forwards onward (as home, or as a
// stale-cache fallback) are likewise batched into one message per
// destination.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lapse/internal/adaptive"
	"lapse/internal/cluster"
	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/msg"
	"lapse/internal/partition"
	"lapse/internal/replication"
	"lapse/internal/server"
	"lapse/internal/store"
)

// Per-key locality states (per node).
const (
	stateNotHere uint32 = iota
	stateOwned
	stateIncoming   // relocation to this node in progress; accesses are queued
	stateReplicated // served from the node-local replica (hot-key replication)
)

// maxHops bounds forwarding chains; exceeding it indicates a routing bug.
const maxHops = 16

// Config parameterizes a Lapse instance.
type Config struct {
	// LocationCaches enables per-node caches of recently observed key
	// locations (Section 3.3). Off by default, as in the paper's reported
	// runs.
	LocationCaches bool
	// HomePartitioner statically assigns home nodes to keys. Defaults to
	// range partitioning.
	HomePartitioner partition.Partitioner
	// Unbatched disables per-destination message batching (measurement
	// only).
	Unbatched bool
	// Replicate designates hot keys managed by eventually-consistent
	// replication instead of relocation: every node holds a local replica,
	// all reads and cumulative writes are shared-memory operations, and a
	// background sync cycle merges updates via each key's home node (see
	// internal/replication). Localize is a no-op for replicated keys. Must
	// be identical on every node of a multi-process deployment.
	Replicate []kv.Key
	// ReplicaSyncEvery is the replication sync interval
	// (0 = replication.DefaultSyncEvery).
	ReplicaSyncEvery time.Duration
	// Adaptive enables the online per-key management controller: each node
	// periodically reports its hottest keys to their home nodes, which
	// promote hot-everywhere keys into replication, relocate locality-skewed
	// keys to their dominant accessor, and demote keys that went cold —
	// live, with explicit transition protocols (see internal/adaptive and
	// adaptive.go). Replicate keys become the initial replicated set, which
	// the controller may demote like any other. Must be identical on every
	// node of a multi-process deployment.
	Adaptive *adaptive.Config
	// Serving enables the read-path serving tier: MultiGet misses install
	// TTL-leased values in a node-local serving cache, owners track and
	// revoke leases on writes/relocations/promotions, and subsequent
	// MultiGets of leased keys are shared-memory reads with zero
	// pending-table registration (see serving.go and DESIGN.md "Serving
	// tier"). nil disables the tier; MultiGet then behaves like Pull.
	Serving *ServingConfig
}

// System is a running Lapse instance on a cluster.
type System struct {
	cl     *cluster.Cluster
	layout kv.Layout
	cfg    Config
	home   partition.Partitioner
	g      *server.Group
	nodes  []*node
}

// node holds the per-node policy state: the local parameter store, the
// locality state of every key, the owner table for keys homed here, and one
// policyShard per server shard with that shard's relocation queues. The
// message loops and pending-operation tables are the shared runtime's.
type node struct {
	sys *System
	srv *server.Node
	id  int

	store store.Store
	// state[k] is the locality state of key k at this node.
	state []atomic.Uint32
	// owner[k] is the current owner of key k; meaningful only when this
	// node is k's home. Only shard(k)'s goroutine writes it.
	owner []atomic.Int32
	// cache[k] is the cached location of key k (-1 = unknown); only used
	// when location caches are enabled.
	cache []atomic.Int32
	// sh[s] is the policy of server shard s.
	sh []*policyShard
	// rep manages this node's replicated hot keys (nil when replication is
	// not configured). Its wire messages are pinned to shard 0.
	rep *replication.Manager
	// tracker samples this node's key accesses for hot-key candidates.
	// Per-node (like stats), so worker fast paths never contend on a
	// process-wide counter.
	tracker *replication.Tracker
	// ctlStop/ctlDone bracket the adaptive controller's report ticker
	// goroutine (nil when adaptive management is off).
	ctlStop chan struct{}
	ctlDone chan struct{}
	// serving is the node's client-side lease cache, leases the owner-side
	// lease registry, and leased[k] a lock-free flag the worker write fast
	// path checks before touching the registry. All nil/empty when the
	// serving tier is disabled.
	serving *servingCache
	leases  *leaseReg
	leased  []atomic.Uint32
}

// policyShard is one server shard's policy state: the relocation queues of
// the shard's keys. Everything it touches by key — store values, locality
// states, owner entries, queues — belongs to its static key slice, so shard
// goroutines never race on per-key state; queueMu exists because worker
// threads enqueue into the shard's relocation queues.
type policyShard struct {
	nd    *node
	rt    *server.Runtime
	stats *metrics.ServerStats
	// trace is the cluster's control-plane event ring; relocation and
	// management transitions of this shard's keys are recorded into it.
	trace *metrics.TraceRing
	// queueMu guards queues and the Incoming<->Owned transitions of the
	// shard's keys.
	queueMu sync.Mutex
	queues  map[kv.Key]*keyQueue
	// transitioning tracks the shard's keys with a management transition in
	// flight (promote into / demote out of replication). Only the shard's
	// server goroutine touches it.
	transitioning map[kv.Key]*transition
	// classifier decides management transitions for keys homed here (nil
	// unless adaptive management is enabled).
	classifier *adaptive.Classifier
	// handleOp answer scratch, reused across messages (only the shard's
	// server goroutine touches it, and responses are consumed on send).
	ansKeys []kv.Key
	ansVals []float32
	resp    msg.OpResp
}

// keyQueue buffers operations that arrived for a key while it is relocating
// to this node (state Incoming). Entries drain in arrival order.
type keyQueue struct {
	entries []queueEntry
}

// queueEntry is one queued access: a local worker operation, a forwarded
// remote operation, or a relocation instruct that chains the key onward.
type queueEntry struct {
	// Local worker op (localOp != nil), remote op (remote != nil), or
	// instruct (instr != nil). Exactly one is set.
	local  *localOp
	remote *msg.Op
	instr  *msg.RelocInstruct
	// at is the enqueue time; the drain observes now-at into the shard's
	// QueueWait histogram — the time an access spent blocked on a relocation.
	at time.Time
}

// localOp is a single-key slice of a worker operation that had to be queued.
type localOp struct {
	t    msg.OpType
	id   uint64 // pending-op ID at this node (the key's shard's part)
	k    kv.Key
	off  int32     // occurrence offset into the operation's buffer
	dst  []float32 // pull destination (sub-slice of the worker's buffer)
	vals []float32 // push update term
}

// New creates a Lapse instance on cl with all parameters zero-initialized at
// their home nodes, and starts the per-shard server goroutines of every
// local node.
func New(cl *cluster.Cluster, layout kv.Layout, cfg Config) *System {
	if cfg.HomePartitioner == nil {
		cfg.HomePartitioner = partition.NewRange(layout.NumKeys(), cl.Nodes())
	}
	s := &System{
		cl:     cl,
		layout: layout,
		cfg:    cfg,
		home:   cfg.HomePartitioner,
		g:      server.NewGroup(cl, layout, server.Config{Unbatched: cfg.Unbatched}),
		nodes:  make([]*node, cl.Nodes()),
	}
	nk := int(layout.NumKeys())
	// Only nodes hosted by this process get stores and bookkeeping; in a
	// multi-process deployment the remote nodes' state lives with them.
	for n := 0; n < cl.Nodes(); n++ {
		if !cl.Local(n) {
			continue
		}
		srv := s.g.Node(n)
		nd := &node{
			sys:     s,
			srv:     srv,
			id:      n,
			store:   store.NewDense(layout, store.DefaultLatches),
			state:   make([]atomic.Uint32, nk),
			owner:   make([]atomic.Int32, nk),
			sh:      make([]*policyShard, srv.Shards()),
			tracker: replication.NewTracker(0),
		}
		for sh := range nd.sh {
			rt := srv.Shard(sh)
			nd.sh[sh] = &policyShard{nd: nd, rt: rt, stats: rt.Stats(), trace: cl.Trace(),
				queues: make(map[kv.Key]*keyQueue), transitioning: make(map[kv.Key]*transition)}
		}
		if cfg.LocationCaches {
			nd.cache = make([]atomic.Int32, nk)
			for i := range nd.cache {
				nd.cache[i].Store(-1)
			}
		}
		if cfg.Serving != nil {
			nd.serving = newServingCache()
			nd.leases = newLeaseReg(cfg.Serving)
			nd.leased = make([]atomic.Uint32, nk)
		}
		if len(cfg.Replicate) > 0 || cfg.Adaptive != nil {
			nd.rep = replication.NewManager(replication.Config{
				Node:      n,
				Nodes:     cl.Nodes(),
				Shards:    srv.Shards(),
				Layout:    layout,
				Home:      s.home,
				Keys:      cfg.Replicate,
				SyncEvery: cfg.ReplicaSyncEvery,
				Stats:     srv.Shard(0).Stats(),
				Send:      srv.Send,
			})
		}
		if cfg.Adaptive != nil {
			acfg := cfg.Adaptive.WithDefaults()
			for _, shp := range nd.sh {
				shp := shp
				shp.classifier = adaptive.NewClassifier(acfg, adaptive.View{
					Node:       n,
					Owner:      func(k kv.Key) int { return int(nd.owner[k].Load()) },
					Replicated: func(k kv.Key) bool { return nd.state[k].Load() == stateReplicated },
					Busy:       func(k kv.Key) bool { _, ok := shp.transitioning[k]; return ok },
				})
			}
			// Seed the statically replicated keys homed here into the
			// classifiers' managed sets, so the controller can demote them
			// once they go cold like any key it promoted itself.
			for _, k := range cfg.Replicate {
				if s.home.NodeOf(k) == n {
					nd.shardOf(k).classifier.Manage(k)
				}
			}
		}
		s.nodes[n] = nd
	}
	// Initial allocation: every key lives at its home node; replicated keys
	// live in the replication managers instead and are marked Replicated at
	// every local node. The owner table names the home for every key —
	// including replicated ones, whose owner stays the home for as long as
	// they are replicated — so demotion reopens correct routing with no
	// table updates. Every process derives the same global picture from the
	// shared partitioner but materializes only its local share.
	replicated := make(map[kv.Key]bool, len(cfg.Replicate))
	for _, k := range cfg.Replicate {
		replicated[k] = true
	}
	for k := kv.Key(0); k < layout.NumKeys(); k++ {
		h := s.home.NodeOf(k)
		for _, nd := range s.nodes {
			if nd != nil {
				nd.owner[k].Store(int32(h))
			}
		}
		if replicated[k] {
			for _, nd := range s.nodes {
				if nd != nil {
					nd.state[k].Store(stateReplicated)
				}
			}
			continue
		}
		if nd := s.nodes[h]; nd != nil {
			nd.store.Set(k, make([]float32, layout.Len(k)))
			nd.state[k].Store(stateOwned)
		}
	}
	s.g.Start(func(n, shard int) server.Policy {
		if s.nodes[n] == nil {
			return nil // non-local node: no message loop runs
		}
		return s.nodes[n].sh[shard]
	})
	for _, nd := range s.nodes {
		if nd != nil && nd.rep != nil {
			nd.rep.Start()
		}
	}
	if cfg.Adaptive != nil {
		for _, nd := range s.nodes {
			if nd != nil {
				nd.startController(cfg.Adaptive.WithDefaults())
			}
		}
	}
	return s
}

// shardOf returns the policy shard owning key k at this node.
func (nd *node) shardOf(k kv.Key) *policyShard {
	return nd.sh[msg.ShardOfKey(k, len(nd.sh))]
}

// Layout returns the parameter layout.
func (s *System) Layout() kv.Layout { return s.layout }

// Stats returns per-shard server statistics, node-major (Table 5
// instrumentation; aggregate with metrics.Sum).
func (s *System) Stats() []*metrics.ServerStats { return s.g.Stats() }

// Latencies returns the merged operation-latency snapshot of every worker of
// this process's nodes.
func (s *System) Latencies() metrics.LatencySnapshot { return s.g.Latencies() }

// NodeStats returns the per-shard statistics of one node.
func (s *System) NodeStats(n int) []*metrics.ServerStats { return s.g.NodeStats(n) }

// ResetStats zeroes all per-shard statistics (e.g. after warm-up).
func (s *System) ResetStats() {
	for _, st := range s.g.Stats() {
		st.Reset()
	}
}

// HomeOf returns the home node of k.
func (s *System) HomeOf(k kv.Key) int { return s.home.NodeOf(k) }

// OwnerOf returns the current owner of k according to its home node. Only
// meaningful in quiescent states (tests, evaluation), and only for keys
// whose home node is hosted by this process.
func (s *System) OwnerOf(k kv.Key) int {
	h := s.home.NodeOf(k)
	if s.nodes[h] == nil {
		panic(fmt.Sprintf("core: OwnerOf(%d): home node %d is not hosted by this process", k, h))
	}
	return int(s.nodes[h].owner[k].Load())
}

// Init sets initial parameter values before training; it writes the stores
// directly and must not run concurrently with workers. fn is invoked for
// every key of the layout — so stateful initializers produce identical
// sequences in every process — but only keys resident on this process's
// nodes are stored.
func (s *System) Init(fn func(k kv.Key, val []float32)) {
	var buf []float32
	for k := kv.Key(0); k < s.layout.NumKeys(); k++ {
		l := s.layout.Len(k)
		if cap(buf) < l {
			buf = make([]float32, l)
		}
		v := buf[:l]
		for i := range v {
			v[i] = 0
		}
		fn(k, v)
		if s.replicated(k) {
			// Replicated keys are seeded at every local replica (and the
			// authoritative copy at the key's home).
			for _, nd := range s.nodes {
				if nd != nil {
					nd.rep.InitKey(k, v)
				}
			}
			continue
		}
		h := s.home.NodeOf(k)
		if s.nodes[h] == nil {
			continue // homed (and, pre-training, owned) remotely
		}
		if nd := s.nodes[int(s.nodes[h].owner[k].Load())]; nd != nil {
			nd.store.Set(k, v)
		}
	}
}

// replicated reports whether k is managed by replication.
func (s *System) replicated(k kv.Key) bool {
	for _, nd := range s.nodes {
		if nd != nil {
			return nd.rep != nil && nd.rep.Replicated(k)
		}
	}
	return false
}

// readParameterPatience bounds how long ReadParameter waits for a key whose
// move is in flight before it declares the key lost.
const readParameterPatience = 2 * time.Second

// ReadParameter reads the current value of k from its owner's store,
// bypassing the network. Only valid in quiescent states, for keys currently
// owned by a node of this process (use a worker Pull otherwise). For a
// replicated key it returns the authoritative merged value at the key's
// home, which equals every replica once the sync cycle has converged.
//
// A key can be in flight even between epochs: the home registers a new
// owner before the transfer reaches it, and the adaptive controller
// relocates, promotes and demotes keys on its own schedule. While the key
// is missing where the owner table or the replicated flag points,
// ReadParameter re-resolves both and retries, for up to
// readParameterPatience.
func (s *System) ReadParameter(k kv.Key, dst []float32) {
	var deadline time.Time
	for {
		missing := s.readParameterOnce(k, dst)
		if missing == "" {
			return
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(readParameterPatience)
		} else if time.Now().After(deadline) {
			panic(fmt.Sprintf("core: ReadParameter(%d): %s", k, missing))
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// readParameterOnce makes one ReadParameter attempt. It returns "" on
// success, or why k was not where the owner table or the replicated flag
// says it is.
func (s *System) readParameterOnce(k kv.Key, dst []float32) (missing string) {
	if s.replicated(k) {
		h := s.home.NodeOf(k)
		if s.nodes[h] == nil {
			panic(fmt.Sprintf("core: ReadParameter(%d): home node %d of replicated key is not hosted by this process", k, h))
		}
		if !s.nodes[h].rep.ReadAuthoritative(k, dst) {
			return "replicated key has no authoritative value at its home"
		}
		return ""
	}
	owner := s.OwnerOf(k)
	if s.nodes[owner] == nil {
		panic(fmt.Sprintf("core: ReadParameter(%d): owner node %d is not hosted by this process", k, owner))
	}
	if !s.nodes[owner].store.Read(k, dst) {
		return "key not at its registered owner"
	}
	return ""
}

// Shutdown stops the adaptive controllers and replica sync cycles and waits
// for the server goroutines to exit; the cluster network must be closed
// first (sync messages sent while closing are dropped by the transport).
func (s *System) Shutdown() {
	for _, nd := range s.nodes {
		if nd != nil {
			nd.stopController()
		}
	}
	for _, nd := range s.nodes {
		if nd != nil && nd.rep != nil {
			nd.rep.Stop()
		}
	}
	s.g.Wait()
}

// FlushReplicas runs one replica sync round on every node hosted by this
// process, in addition to the background interval. Convergence of a pushed
// value needs two rounds (deltas to the home, merged values back out) plus
// message delivery.
func (s *System) FlushReplicas() {
	for _, nd := range s.nodes {
		if nd != nil && nd.rep != nil {
			nd.rep.Flush()
		}
	}
}

// HotKeys returns the n hottest keys by sampled access frequency across all
// local nodes, hottest first — the candidates worth replicating (see
// replication.Tracker).
func (s *System) HotKeys(n int) []metrics.KeyFreq {
	var trackers []*replication.Tracker
	for _, nd := range s.nodes {
		if nd != nil {
			trackers = append(trackers, nd.tracker)
		}
	}
	return replication.MergeHot(n, trackers...)
}

// ReadReplica reads node's current replica view of a replicated key (tests
// and convergence checks; node must be hosted by this process).
func (s *System) ReadReplica(node int, k kv.Key, dst []float32) {
	nd := s.nodes[node]
	if nd == nil || nd.rep == nil {
		panic(fmt.Sprintf("core: ReadReplica(%d, %d): node has no replication manager", node, k))
	}
	nd.rep.ReadReplica(k, dst)
}

// Handle returns the KV client for a worker thread.
func (s *System) Handle(worker int) kv.KV {
	n := s.cl.NodeOfWorker(worker)
	nd := s.nodes[n]
	return &handle{Handle: server.NewHandle(s.g.Node(n), worker), sys: s, nd: nd, trk: nd.tracker.Handle()}
}

// OnOpResp implements server.Policy: refresh the location cache with the
// responder's identity, and install leased values in the serving cache, both
// before the runtime completes the pending operation — a worker unblocked by
// the completion must already see the lease installed, or its own later
// write-through invalidation could be overtaken by this install. The
// response's keys all belong to this shard.
func (sh *policyShard) OnOpResp(m *msg.OpResp) {
	if sh.nd.cache != nil {
		for _, k := range m.Keys {
			sh.nd.cache[k].Store(m.Responder)
		}
	}
	if sh.nd.serving != nil && m.LeaseTTL > 0 && m.Type == msg.OpPull {
		src := 0
		for _, k := range m.Keys {
			l := sh.nd.sys.layout.Len(k)
			sh.nd.serving.install(k, m.Vals[src:src+l], m.LeaseTTL)
			src += l
		}
	}
}

// HandleMessage implements server.Policy.
func (sh *policyShard) HandleMessage(src int, m any) {
	switch t := m.(type) {
	case *msg.Op:
		sh.handleOp(t)
	case *msg.Localize:
		sh.handleLocalize(t)
	case *msg.RelocInstruct:
		sh.handleInstruct(t)
	case *msg.RelocTransfer:
		sh.handleTransfer(t)
	case *msg.ReplicaSync:
		// Replication wire traffic is pinned to shard 0 (msg.ShardOf), so
		// successive sync rounds keep their per-link order.
		sh.nd.rep.HandleSync(t)
	case *msg.ReplicaRefresh:
		sh.nd.rep.HandleRefresh(t)
	case *msg.LeaseRevoke:
		sh.nd.servingInvalidate(t.Keys, &sh.stats.LeaseInvalidations)
	case *msg.Manage:
		// Key-addressed like operations, so transitions stay FIFO with the
		// accesses of the keys they manage on each (link, shard) stream.
		sh.handleManage(t)
	default:
		panic(fmt.Sprintf("core: unexpected message %T at node %d", m, sh.rt.Node()))
	}
}

// handleOp processes a pull/push that arrived over the network. Keys are
// handled individually because their states can diverge; answerable keys are
// grouped into a single response, and keys that must travel onward are
// batched into one forward message per destination node (staying within this
// shard's key slice, so forwards remain shard-pure).
//
// The answer accumulators and the response struct are per-shard scratch:
// handleOp runs only on the shard's server goroutine, and SendOrDispatch
// consumes the response synchronously (encode on send, inline dispatch for
// self), so the scratch is free again when handleOp returns.
func (sh *policyShard) handleOp(m *msg.Op) {
	nd := sh.nd
	if m.Hops > maxHops {
		panic(fmt.Sprintf("core: op %d exceeded %d hops (routing loop?)", m.ID, maxHops))
	}
	ansKeys := sh.ansKeys[:0]
	ansVals := sh.ansVals[:0]
	// A lease is granted only when every answered key was served from the
	// owned store: replica-served keys are refreshed by the sync cycle, not
	// the lease protocol, so a mixed answer grants nothing (rare; the origin
	// simply retries the lease on its next miss).
	leaseOK := m.Lease && m.Type == msg.OpPull && nd.leases != nil && int(m.Origin) != nd.id
	var fwd map[int]*msg.Op
	src := 0
	for _, k := range m.Keys {
		l := nd.sys.layout.Len(k)
		var upd []float32
		if m.Type == msg.OpPush {
			upd = m.Vals[src : src+l]
			src += l
		}
		// Replicated keys are served from the local replica. Remote
		// operations reach one while the origin has not (or not yet) a
		// replica of its own: mid-promotion, mid-demotion, or after its
		// local fast path lost a race against a transition. A rep failure
		// means the key stopped being replicated here concurrently — fall
		// through to the ownership paths below.
		if nd.state[k].Load() == stateReplicated && nd.rep != nil {
			switch m.Type {
			case msg.OpPull:
				n := len(ansVals)
				ansVals = kv.Grow(ansVals, l)
				if nd.rep.Pull(k, ansVals[n:n+l]) {
					ansKeys = append(ansKeys, k)
					leaseOK = false
					continue
				}
				ansVals = ansVals[:n]
			case msg.OpPush:
				if nd.rep.Push(k, upd) {
					ansKeys = append(ansKeys, k)
					continue
				}
			}
		}
		// The store may only be probed for keys in Owned state: during a
		// queue drain the value is already present but queued operations
		// (which arrived earlier) must be processed first, or program
		// order of asynchronous operations would break.
		if nd.state[k].Load() == stateOwned {
			switch m.Type {
			case msg.OpPull:
				n := len(ansVals)
				ansVals = kv.Grow(ansVals, l)
				if nd.store.Read(k, ansVals[n:n+l]) {
					ansKeys = append(ansKeys, k)
					continue
				}
				ansVals = ansVals[:n] // lost the race against a transfer-out
			case msg.OpPush:
				if nd.store.Add(k, upd) {
					ansKeys = append(ansKeys, k)
					if nd.leased != nil && nd.leased[k].Load() != 0 {
						// Another node wrote a leased key: revoke before the
						// ack leaves, so the revoke chases the last grant on
						// each holder's FIFO (link, shard) stream. The writer
						// itself is NOT skipped — a grant carrying the
						// pre-write value may still be in flight to it, and
						// only a revoke ahead of this push's ack keeps the
						// writer's read-your-writes intact.
						nd.revokeLeases(k)
					}
					continue
				}
			}
		}
		// Not owned here: queue if incoming, otherwise route onward.
		fwd = sh.queueOrRoute(m, k, upd, fwd)
	}
	sh.ansKeys, sh.ansVals = ansKeys, ansVals // keep grown capacity
	if len(ansKeys) > 0 {
		vals := ansVals
		if m.Type == msg.OpPush {
			vals = nil
		}
		resp := &sh.resp
		*resp = msg.OpResp{Type: m.Type, ID: m.ID, Responder: int32(sh.rt.Node()), Keys: ansKeys, Vals: vals}
		if leaseOK {
			resp.LeaseTTL = nd.grantLeases(ansKeys, int(m.Origin))
		}
		sh.rt.SendOrDispatch(int(m.Origin), resp)
	}
	for dest, sub := range fwd {
		sh.rt.SendOrDispatch(dest, sub)
	}
}

// queueOrRoute handles one key of an operation that this node cannot answer:
// it queues the key if a relocation to this node is in flight, forwards it to
// the current owner if this node is the key's home, and double-forwards it to
// the home node otherwise (stale cache or post-relocation rerouting).
// Forwards accumulate in fwd, one message per destination.
func (sh *policyShard) queueOrRoute(m *msg.Op, k kv.Key, upd []float32, fwd map[int]*msg.Op) map[int]*msg.Op {
	nd := sh.nd
	sh.queueMu.Lock()
	if q, ok := sh.queues[k]; ok {
		// The queued entry outlives this handler, so it must own its update
		// values: upd aliases the decoded message's recyclable scratch.
		sub := &msg.Op{Type: m.Type, ID: m.ID, Origin: m.Origin, Hops: m.Hops, Lease: m.Lease,
			Keys: []kv.Key{k}, Vals: append([]float32(nil), upd...)}
		q.entries = append(q.entries, queueEntry{remote: sub, at: time.Now()})
		sh.queueMu.Unlock()
		sh.stats.QueuedOps.Inc()
		return fwd
	}
	sh.queueMu.Unlock()
	if nd.sys.home.NodeOf(k) == sh.rt.Node() {
		dest := int(nd.owner[k].Load())
		if dest == sh.rt.Node() {
			// The owner table says "here" but the store said no: the
			// key is mid-arrival; the queue check above raced with the
			// transfer. Retry through the queue path.
			sub := &msg.Op{Type: m.Type, ID: m.ID, Origin: m.Origin, Hops: m.Hops + 1, Lease: m.Lease, Keys: []kv.Key{k}, Vals: upd}
			sh.requeueRacedOp(sub, k)
			return fwd
		}
		sh.stats.Forwards.Inc()
		return sh.addForward(fwd, m, dest, k, upd)
	}
	// Not home, not owner: the sender used a stale location cache, or the
	// key left while this op was queued. Route via the home node.
	sh.stats.DoubleForwards.Inc()
	return sh.addForward(fwd, m, nd.sys.home.NodeOf(k), k, upd)
}

// addForward appends key k (with its push update term, if any) to the
// forward group headed to dest; with batching disabled it sends a single-key
// message immediately, as the original per-key protocol did. The lease bit
// travels with the forward, so a mid-relocation (or stale-cache-routed) pull
// still comes back with a lease from wherever the key landed.
func (sh *policyShard) addForward(fwd map[int]*msg.Op, m *msg.Op, dest int, k kv.Key, upd []float32) map[int]*msg.Op {
	if !sh.rt.Batched() {
		sub := &msg.Op{Type: m.Type, ID: m.ID, Origin: m.Origin, Hops: m.Hops + 1, Lease: m.Lease, Keys: []kv.Key{k}, Vals: upd}
		sh.rt.SendOrDispatch(dest, sub)
		return fwd
	}
	if fwd == nil {
		fwd = make(map[int]*msg.Op)
	}
	sub := fwd[dest]
	if sub == nil {
		sub = &msg.Op{Type: m.Type, ID: m.ID, Origin: m.Origin, Hops: m.Hops + 1, Lease: m.Lease}
		fwd[dest] = sub
	}
	sub.Keys = append(sub.Keys, k)
	sub.Vals = append(sub.Vals, upd...)
	return fwd
}

// requeueRacedOp re-examines a key whose owner table points at this node but
// whose value is not in the store yet (transfer arriving concurrently is
// impossible since the shard goroutine processes its keys' messages
// serially, but the state can be Incoming when the op raced with a local
// relocation bookkeeping step). It queues if Incoming and otherwise retries
// the store access.
func (sh *policyShard) requeueRacedOp(m *msg.Op, k kv.Key) {
	nd := sh.nd
	sh.queueMu.Lock()
	defer sh.queueMu.Unlock()
	if q, ok := sh.queues[k]; ok {
		// Queued past this handler: the entry must own its values (m.Vals
		// may alias the incoming message's recyclable decode scratch).
		m.Vals = append([]float32(nil), m.Vals...)
		q.entries = append(q.entries, queueEntry{remote: m, at: time.Now()})
		sh.stats.QueuedOps.Inc()
		return
	}
	// Owned after all (worker marked it between our store probe and now).
	l := nd.sys.layout.Len(k)
	switch m.Type {
	case msg.OpPull:
		buf := make([]float32, l)
		if !nd.store.Read(k, buf) {
			panic(fmt.Sprintf("core: key %d claimed by owner table at node %d but absent", k, sh.rt.Node()))
		}
		resp := &msg.OpResp{Type: msg.OpPull, ID: m.ID, Responder: int32(sh.rt.Node()), Keys: []kv.Key{k}, Vals: buf}
		if m.Lease && nd.leases != nil && int(m.Origin) != nd.id {
			// Served from the owned store, same as handleOp's answer path:
			// the lease request is honored here too.
			resp.LeaseTTL = nd.grantLeases(resp.Keys, int(m.Origin))
		}
		sh.rt.SendOrDispatch(int(m.Origin), resp)
	case msg.OpPush:
		if !nd.store.Add(k, m.Vals) {
			panic(fmt.Sprintf("core: key %d claimed by owner table at node %d but absent", k, sh.rt.Node()))
		}
		if nd.leased != nil && nd.leased[k].Load() != 0 {
			// As in handleOp: the writer is not skipped, so the revoke chases
			// any grant still in flight to it ahead of this push's ack.
			nd.revokeLeases(k)
		}
		resp := &msg.OpResp{Type: msg.OpPush, ID: m.ID, Responder: int32(sh.rt.Node()), Keys: []kv.Key{k}}
		sh.rt.SendOrDispatch(int(m.Origin), resp)
	}
}

// handleLocalize runs at the home node (message 1 of the relocation
// protocol): update the owner table immediately, then instruct each previous
// owner to hand the keys over to the requester. Keys are grouped per previous
// owner (message grouping, Section 3.7). Two adaptive-management cases divert
// keys from that path: a key with a transition in flight defers the request
// until the transition settles, and a replicated key is answered with a
// ManageReplicate carrying the authoritative value — the key is local
// everywhere already, the origin just has not observed it yet.
func (sh *policyShard) handleLocalize(m *msg.Localize) {
	nd := sh.nd
	groups := make(map[int][]kv.Key)
	var repKeys []kv.Key
	var repVals []float32
	for _, k := range m.Keys {
		if nd.sys.home.NodeOf(k) != sh.rt.Node() {
			panic(fmt.Sprintf("core: localize for key %d reached non-home node %d", k, sh.rt.Node()))
		}
		if tr, ok := sh.transitioning[k]; ok {
			tr.deferred = append(tr.deferred, deferredLocalize{origin: m.Origin, id: m.ID})
			continue
		}
		if nd.state[k].Load() == stateReplicated {
			repKeys = append(repKeys, k)
			repVals = append(repVals, nd.rep.AuthValue(k)...)
			continue
		}
		prev := int(nd.owner[k].Swap(m.Origin))
		groups[prev] = append(groups[prev], k)
		sh.trace.Record(sh.rt.Node(), sh.rt.Shard(), metrics.TraceRelocStart, k, prev, int(m.Origin), "")
	}
	if len(repKeys) > 0 {
		sh.rt.SendOrDispatch(int(m.Origin), &msg.Manage{
			Kind: msg.ManageReplicate, Origin: int32(sh.rt.Node()), Keys: repKeys, Vals: repVals})
	}
	for prev, keys := range groups {
		instr := &msg.RelocInstruct{ID: m.ID, Dest: m.Origin, Keys: keys}
		sh.rt.SendOrDispatch(prev, instr)
	}
}

// handleInstruct runs at the (old) owner (message 2): stop processing, remove
// the keys from the local store, and transfer them to the new owner. Keys
// still in flight toward this node are chained: the instruct is queued and
// re-executed when the transfer arrives.
func (sh *policyShard) handleInstruct(m *msg.RelocInstruct) {
	if int(m.Dest) == sh.rt.Node() {
		// Localize raced with a relocation that already made this node
		// the owner; nothing to move. Confirm arrival to the pending
		// localize directly.
		sh.rt.Pending().CompleteLocalizeKeys(m.Keys, sh.stats)
		return
	}
	var moveKeys []kv.Key
	var moveVals []float32
	for _, k := range m.Keys {
		sh.queueMu.Lock()
		if q, ok := sh.queues[k]; ok {
			sub := &msg.RelocInstruct{ID: m.ID, Dest: m.Dest, Keys: []kv.Key{k}}
			q.entries = append(q.entries, queueEntry{instr: sub, at: time.Now()})
			sh.queueMu.Unlock()
			continue
		}
		sh.queueMu.Unlock()
		v := sh.takeOwned(k)
		moveKeys = append(moveKeys, k)
		moveVals = append(moveVals, v...)
	}
	if len(moveKeys) > 0 {
		tr := &msg.RelocTransfer{ID: m.ID, Keys: moveKeys, Vals: moveVals}
		sh.rt.SendOrDispatch(int(m.Dest), tr)
	}
}

// takeOwned removes an owned key from the local store, flipping the locality
// state first so worker fast paths that lose the race fall through to the
// remote path.
func (sh *policyShard) takeOwned(k kv.Key) []float32 {
	sh.nd.state[k].Store(stateNotHere)
	v := sh.nd.store.Take(k)
	if v == nil {
		panic(fmt.Sprintf("core: instruct for key %d at node %d: not owned and not incoming", k, sh.rt.Node()))
	}
	if sh.nd.leased != nil && sh.nd.leased[k].Load() != 0 {
		// The key moves to a new owner who knows nothing of the leases this
		// node granted; withdraw them before the transfer leaves.
		sh.nd.revokeLeases(k)
	}
	return v
}

// handleTransfer runs at the new owner (message 3): insert the values, drain
// the per-key queues in arrival order, and only then open the shared-memory
// fast path. A queued instruct chains the key to its next owner.
func (sh *policyShard) handleTransfer(m *msg.RelocTransfer) {
	src := 0
	for _, k := range m.Keys {
		l := sh.nd.sys.layout.Len(k)
		sh.nd.store.Set(k, m.Vals[src:src+l])
		src += l
		sh.drainQueue(k)
	}
}

// drainQueue processes the queued entries of a freshly arrived key in order.
// It completes the pending localize for the key, then applies queued
// operations; if an instruct is encountered the key immediately moves on and
// any remaining queued entries are re-routed through the home node.
func (sh *policyShard) drainQueue(k kv.Key) {
	nd := sh.nd
	sh.stats.Relocations.Inc()
	sh.trace.Record(sh.rt.Node(), sh.rt.Shard(), metrics.TraceRelocFinish, k, -1, sh.rt.Node(), "")
	sh.rt.Pending().CompleteLocalizeKeys([]kv.Key{k}, sh.stats)

	for {
		sh.queueMu.Lock()
		q, ok := sh.queues[k]
		if !ok || len(q.entries) == 0 {
			if tr, busy := sh.transitioning[k]; busy && tr.kind == transPromote {
				// This arrival is the home recalling the key to promote it
				// into replication: hand the value to the replication
				// manager instead of opening the Owned fast path.
				sh.queueMu.Unlock()
				sh.finishReplicate(k)
				return
			}
			// Queue empty: transition to Owned and stop. The
			// transition happens under queueMu so worker slow paths
			// cannot enqueue after the queue is deleted. Waiters
			// registered during the drain are notified here.
			delete(sh.queues, k)
			nd.state[k].Store(stateOwned)
			if nd.cache != nil {
				nd.cache[k].Store(int32(sh.rt.Node()))
			}
			sh.rt.Pending().CompleteLocalizeKeys([]kv.Key{k}, sh.stats)
			sh.queueMu.Unlock()
			return
		}
		e := q.entries[0]
		q.entries = q.entries[1:]
		sh.queueMu.Unlock()
		sh.stats.QueueWait.Observe(time.Since(e.at))

		switch {
		case e.local != nil:
			sh.applyQueuedLocal(k, e.local)
		case e.remote != nil:
			sh.applyQueuedRemote(k, e.remote)
		case e.instr != nil:
			sh.chainRelocation(k, e.instr)
			return
		}
	}
}

// applyQueuedLocal executes a queued local worker op against the store and
// completes it through the pending table (no network involved). The
// occurrence's offset entry is claimed first, so a duplicate occurrence's
// response cannot be misdirected onto the region filled here.
func (sh *policyShard) applyQueuedLocal(k kv.Key, op *localOp) {
	nd := sh.nd
	switch op.t {
	case msg.OpPull:
		if !nd.store.Read(k, op.dst) {
			panic(fmt.Sprintf("core: queued local pull of %d failed after transfer", k))
		}
		sh.stats.LocalReads.Inc()
		sh.stats.ReadValues.Add(int64(len(op.dst)))
	case msg.OpPush:
		if !nd.store.Add(k, op.vals) {
			panic(fmt.Sprintf("core: queued local push of %d failed after transfer", k))
		}
		sh.stats.LocalWrites.Inc()
	}
	sh.rt.Pending().ClaimOffset(op.id, k, op.off)
	sh.rt.Pending().FinishKeys(op.id, 1)
}

// applyQueuedRemote executes a queued forwarded op and responds to its
// origin. A queued pull's lease request (m.Lease) is intentionally not
// honored: a queued push behind it in the same drain would overwrite the
// granted value with no revoke in between — after the drain its ack would
// trail the stale grant on the origin's stream, breaking read-your-writes.
// The origin just retries the lease on its next miss.
func (sh *policyShard) applyQueuedRemote(k kv.Key, m *msg.Op) {
	nd := sh.nd
	l := nd.sys.layout.Len(k)
	switch m.Type {
	case msg.OpPull:
		buf := make([]float32, l)
		if !nd.store.Read(k, buf) {
			panic(fmt.Sprintf("core: queued remote pull of %d failed after transfer", k))
		}
		resp := &msg.OpResp{Type: msg.OpPull, ID: m.ID, Responder: int32(sh.rt.Node()), Keys: []kv.Key{k}, Vals: buf}
		sh.rt.SendOrDispatch(int(m.Origin), resp)
	case msg.OpPush:
		if !nd.store.Add(k, m.Vals) {
			panic(fmt.Sprintf("core: queued remote push of %d failed after transfer", k))
		}
		resp := &msg.OpResp{Type: msg.OpPush, ID: m.ID, Responder: int32(sh.rt.Node()), Keys: []kv.Key{k}}
		sh.rt.SendOrDispatch(int(m.Origin), resp)
	}
}

// chainRelocation hands a just-arrived key over to the next owner (a localize
// overtook the in-flight transfer). Entries that remain queued behind the
// instruct are re-routed: local ops go back through the remote path, remote
// ops double-forward via the home node.
func (sh *policyShard) chainRelocation(k kv.Key, instr *msg.RelocInstruct) {
	nd := sh.nd
	v := nd.store.Take(k)
	if v == nil {
		panic(fmt.Sprintf("core: chained instruct for key %d at node %d: value missing", k, sh.rt.Node()))
	}
	// Collect the remainder of the queue, then release it. Localize
	// waiters that registered during the drain are notified here: the key
	// did arrive, it just moves on immediately (localization conflict).
	sh.queueMu.Lock()
	q := sh.queues[k]
	rest := q.entries
	delete(sh.queues, k)
	nd.state[k].Store(stateNotHere)
	sh.rt.Pending().CompleteLocalizeKeys([]kv.Key{k}, sh.stats)
	sh.queueMu.Unlock()

	tr := &msg.RelocTransfer{ID: instr.ID, Keys: []kv.Key{k}, Vals: v}
	sh.rt.SendOrDispatch(int(instr.Dest), tr)

	for _, e := range rest {
		switch {
		case e.local != nil:
			sh.reissueLocal(k, e.local)
		case e.remote != nil:
			e.remote.Hops++
			sh.stats.DoubleForwards.Inc()
			sh.rt.SendOrDispatch(nd.sys.home.NodeOf(k), e.remote)
		case e.instr != nil:
			panic(fmt.Sprintf("core: two instructs queued for key %d at node %d", k, sh.rt.Node()))
		}
	}
}

// reissueLocal converts a queued local op whose key moved away into a remote
// op routed through the home node.
func (sh *policyShard) reissueLocal(k kv.Key, op *localOp) {
	m := &msg.Op{Type: op.t, ID: op.id, Origin: int32(sh.rt.Node()), Keys: []kv.Key{k}, Vals: op.vals}
	if op.t == msg.OpPull {
		sh.stats.RemoteReads.Inc()
		sh.stats.ReadValues.Add(int64(sh.nd.sys.layout.Len(k)))
	} else {
		sh.stats.RemoteWrites.Inc()
	}
	sh.rt.SendOrDispatch(sh.nd.sys.home.NodeOf(k), m)
}

var _ server.Policy = (*policyShard)(nil)
