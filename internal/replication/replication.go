// Package replication manages designated hot keys by eventually-consistent
// replication, the second parameter-management technique next to the
// relocation protocol of internal/core. The paper (Sections 2 and 7)
// observes that skewed workloads have keys every node reads constantly —
// word2vec negative samples, frequent KGE entities — for which relocation
// thrashes: the key bounces between nodes and every bounce costs three
// messages plus queued accesses. For such keys, replication is the right
// technique; combining both per key is the paper's stated future-work
// direction.
//
// Every node holds a full local replica of each replicated key, so reads
// and cumulative writes are shared-memory operations (the server.Router
// Served path — no network on any access). Updates propagate through a
// background sync cycle with two wire messages:
//
//	replica --ReplicaSync(deltas)--> home --ReplicaRefresh(merged)--> replicas
//
// Each node accumulates its local pushes in per-key pending buffers,
// striped by server shard (msg.ShardOfKey) so workers of a sharded runtime
// pushing different hot keys do not contend on one mutex. Every sync
// interval a round drains all stripes and sends the deltas to each key's
// home node, merged into one ReplicaSync per destination — the per-shard
// outputs are combined before dispatch, so a sync round still costs
// O(nodes) messages regardless of shard count or how many keys are dirty.
// Homes broadcast changed authoritative values back out, batched into one
// ReplicaRefresh per node. Both message kinds are pinned to inbox shard 0
// by the transport demux, preserving their per-link order.
//
// Consistency: replicated keys are eventually consistent. Reads always see
// the node's own preceding writes (read-your-writes): a replica's local
// value is "merged value + own unmerged deltas" at all times. This is
// maintained across refreshes by the in-flight buffer: deltas that have been
// sent to the home but are not yet reflected in a refresh stay in the
// replica's view until a refresh acknowledges them (ReplicaSync.Seq /
// ReplicaRefresh.Ack). The pending→in-flight hand-off happens atomically
// under the key's stripe lock, so a concurrent refresh install can never
// observe a delta in neither buffer. Once pushes stop, every replica
// converges to the sum of all pushes within two sync intervals plus message
// latency; the checker in internal/consistency verifies this.
package replication

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/msg"
	"lapse/internal/partition"
	"lapse/internal/store"
)

// DefaultSyncEvery is the background sync interval used when the
// configuration leaves SyncEvery zero.
const DefaultSyncEvery = time.Millisecond

// Config parameterizes one node's replication manager. Every node of a
// cluster must be configured with the same Keys, Home partitioner, and
// Layout (like the relocation home partitioner, they are shared static
// state).
type Config struct {
	// Node is the node this manager serves; Nodes the cluster size.
	Node  int
	Nodes int
	// Shards is the server runtime's shard count; the pending/in-flight
	// delta buffers are striped by it (0 = 1).
	Shards int
	// Layout is the parameter layout (value lengths).
	Layout kv.Layout
	// Home assigns each replicated key's home node, which holds the
	// authoritative merged value. Usually the same partitioner as the
	// relocation protocol's.
	Home partition.Partitioner
	// Keys is the set of replicated keys.
	Keys []kv.Key
	// SyncEvery is the background sync interval (0 = DefaultSyncEvery).
	SyncEvery time.Duration
	// Stats receives the ReplicaHits / ReplicaSyncMessages counters.
	Stats *metrics.ServerStats
	// Send transmits a wire message to another node (the server runtime's
	// Send). It must be safe to call from the manager's sync goroutine.
	Send func(dest int, m any)
}

// inflightDelta is one sync round's worth of sent-but-unacknowledged deltas
// for a single key.
type inflightDelta struct {
	seq   uint32
	delta []float32
}

// stripe is one shard's slice of the delta buffers. Push (worker threads),
// the sync round (ticker goroutine), and refresh installs (server shard 0)
// all synchronize per stripe, so hot keys of different shards never contend.
type stripe struct {
	mu       sync.Mutex
	pending  map[kv.Key][]float32       // local deltas not yet sent
	inflight map[kv.Key][]inflightDelta // sent, not yet acked by a refresh
}

// Manager is one node's replication state: the local replica store, the
// striped pending and in-flight update buffers, and — for keys homed at this
// node — the authoritative merged values. HandleSync and HandleRefresh run
// on the node's shard-0 server goroutine; Pull/Push run on worker threads;
// the sync ticker runs on its own goroutine. Per-key replica writes happen
// only under the key's stripe lock, so refresh installs and pushes cannot
// interleave (reads stay lock-free on the store's latches); the home-role
// state (auth, dirty, applied) is guarded by homeMu. Lock order: a stripe
// lock may be held when taking homeMu, never the reverse.
type Manager struct {
	cfg Config
	// flags[k] is 1 while k is replicated at this node. It replaces a static
	// key-set map so the adaptive controller can add and remove keys at
	// runtime: worker fast paths read it lock-free, and it only flips under
	// k's stripe lock — set after the replica entry exists, cleared before
	// the entry is removed — so a flag observed 1 under the stripe lock
	// guarantees the entry.
	flags   []atomic.Uint32
	replica *store.Sparse
	stripes []stripe

	// sendMu serializes whole sync rounds (build + send), so concurrent
	// Flush calls (ticker + explicit) cannot interleave their messages and
	// Seq stays monotonic per link. Messages are sent while holding sendMu
	// but NOT any stripe lock or homeMu: the receiving server goroutines
	// need those in HandleSync/HandleRefresh, so sending under them could
	// deadlock two nodes against each other once transport inboxes fill
	// up.
	sendMu sync.Mutex
	seq    uint32 // sync rounds sent by this node; written under sendMu

	homeMu  sync.Mutex
	auth    map[kv.Key][]float32 // home role: merged values
	dirty   map[kv.Key]bool      // home role: changed since last broadcast
	applied map[int32]uint32     // home role: highest seq applied per origin
	// barrier[k][origin] is the highest sync round whose deltas for k were
	// folded through origin's demote acknowledgement instead of the sync
	// path. Sync messages are built before they are sent, so a round that
	// was still unsent (or in flight) when origin demoted k can arrive
	// *after* the acknowledgement already folded its delta; HandleSync skips
	// such (key, origin) pairs to keep every delta counted exactly once. The
	// watermark persists across re-promotions — origin's rounds only grow —
	// and costs a few words per demoted (key, origin) pair.
	barrier map[kv.Key]map[int32]uint32

	stop chan struct{}
	done chan struct{}
}

// outMsg is one message assembled under the locks and sent after release.
type outMsg struct {
	dest int
	m    any
}

// NewManager builds the manager for one node. Keys may be empty when every
// replicated key will be entered at runtime (the adaptive controller's mode).
// Replicas (and, at each key's home, the authoritative values) start at zero,
// matching the relocation protocol's zero initialization; use InitKey to set
// starting values.
func NewManager(cfg Config) *Manager {
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = DefaultSyncEvery
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	m := &Manager{
		cfg:     cfg,
		flags:   make([]atomic.Uint32, cfg.Layout.NumKeys()),
		replica: store.NewSparse(cfg.Layout, 0),
		stripes: make([]stripe, cfg.Shards),
		auth:    make(map[kv.Key][]float32),
		dirty:   make(map[kv.Key]bool),
		applied: make(map[int32]uint32),
		barrier: make(map[kv.Key]map[int32]uint32),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for i := range m.stripes {
		m.stripes[i].pending = make(map[kv.Key][]float32)
		m.stripes[i].inflight = make(map[kv.Key][]inflightDelta)
	}
	for _, k := range cfg.Keys {
		if k >= cfg.Layout.NumKeys() {
			panic(fmt.Sprintf("replication: key %d outside layout (%d keys)", k, cfg.Layout.NumKeys()))
		}
		m.flags[k].Store(1)
		m.replica.Set(k, make([]float32, cfg.Layout.Len(k)))
		if cfg.Home.NodeOf(k) == cfg.Node {
			m.auth[k] = make([]float32, cfg.Layout.Len(k))
		}
	}
	return m
}

// stripeOf returns the stripe owning key k.
func (m *Manager) stripeOf(k kv.Key) *stripe {
	return &m.stripes[msg.ShardOfKey(k, len(m.stripes))]
}

// Start spawns the background sync goroutine. Call Stop to halt it.
func (m *Manager) Start() {
	go func() {
		defer close(m.done)
		t := time.NewTicker(m.cfg.SyncEvery)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.Flush()
			}
		}
	}()
}

// Stop halts the background sync goroutine and waits for it to exit. It
// must be called exactly once, after Start.
func (m *Manager) Stop() {
	close(m.stop)
	<-m.done
}

// Replicated reports whether k is currently managed by replication at this
// node. Lock-free; under live transitions the answer can be stale by the time
// the caller acts on it, which is why Pull and Push re-validate and report
// failure instead of trusting a prior Replicated check.
func (m *Manager) Replicated(k kv.Key) bool { return m.flags[k].Load() == 1 }

// Keys returns the statically configured replicated key set (shared slice;
// do not mutate). Keys entered at runtime are not included.
func (m *Manager) Keys() []kv.Key { return m.cfg.Keys }

// InitKey sets the starting value of a replicated key: the local replica
// and, if this node is k's home, the authoritative value. Like System.Init,
// it must not run concurrently with workers or the sync cycle.
func (m *Manager) InitKey(k kv.Key, val []float32) {
	if !m.Replicated(k) {
		panic(fmt.Sprintf("replication: InitKey(%d): key is not replicated", k))
	}
	st := m.stripeOf(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	m.replica.Set(k, val)
	m.homeMu.Lock()
	if a, ok := m.auth[k]; ok {
		copy(a, val)
	}
	m.homeMu.Unlock()
}

// Pull reads the local replica of k into dst. It reports false — without
// touching dst's final contents' validity — when k is not (or no longer)
// replicated here: the caller falls back to its non-replicated path. A true
// return is an ordinary local replica read, never a network access.
func (m *Manager) Pull(k kv.Key, dst []float32) bool {
	if m.flags[k].Load() == 0 {
		return false
	}
	if !m.replica.Read(k, dst) {
		return false // demoted between the flag load and the read
	}
	m.cfg.Stats.ReplicaHits.Inc()
	m.cfg.Stats.ReadValues.Add(int64(len(dst)))
	return true
}

// Push applies a cumulative update to the local replica and accumulates it
// in the key's stripe's pending buffer for the next sync round. It reports
// false when k is not (or no longer) replicated here; the delta was not
// applied anywhere and the caller must route it through its non-replicated
// path, so the update is counted exactly once however the push races with a
// demotion.
func (m *Manager) Push(k kv.Key, delta []float32) bool {
	st := m.stripeOf(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	if m.flags[k].Load() == 0 {
		return false
	}
	p, ok := st.pending[k]
	if !ok {
		p = make([]float32, m.cfg.Layout.Len(k))
		st.pending[k] = p
	}
	for i, d := range delta {
		p[i] += d
	}
	if !m.replica.Add(k, delta) {
		panic(fmt.Sprintf("replication: replica of key %d missing at node %d", k, m.cfg.Node))
	}
	m.cfg.Stats.LocalWrites.Inc()
	return true
}

// EnterKey starts replicating k at this (non-home) node with the home's
// current value v. Idempotent: a key already replicated keeps its local view
// (a duplicate enter must not clobber deltas pushed since the first).
func (m *Manager) EnterKey(k kv.Key, v []float32) {
	st := m.stripeOf(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	if m.flags[k].Load() == 1 {
		return
	}
	m.replica.Set(k, v)
	m.flags[k].Store(1)
}

// EnterHomeKey starts replicating k at its home node, seeding both the
// authoritative merged value and the local replica with v (the value taken
// out of the relocation store).
func (m *Manager) EnterHomeKey(k kv.Key, v []float32) {
	st := m.stripeOf(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	if m.flags[k].Load() == 1 {
		panic(fmt.Sprintf("replication: EnterHomeKey(%d): already replicated at node %d", k, m.cfg.Node))
	}
	m.homeMu.Lock()
	a := make([]float32, len(v))
	copy(a, v)
	m.auth[k] = a
	// Mark dirty so the next sync round re-broadcasts this value. A refresh
	// from before an earlier demotion can still be in flight (refreshes and
	// manage traffic ride different shard links, so there is no FIFO between
	// them) and would otherwise install a stale merged value that never heals
	// if the key goes quiet; the re-broadcast travels the same refresh link
	// and supersedes it.
	m.dirty[k] = true
	m.homeMu.Unlock()
	m.replica.Set(k, v)
	m.flags[k].Store(1)
}

// DemoteLocal stops replicating k at this (non-home) node and returns the
// node's unsynced delta segments for the demote acknowledgement: vals holds
// len(seqs) concatenated value-length segments, seqs the sync round each
// segment was sent under — 0 for the pending, never-sent segment. The caller
// sends them to the home, which folds exactly the segments the sync path has
// not already applied (see ApplyDemoteAck). After DemoteLocal, worker pushes
// fail over to the network path, so no delta can land in a buffer that was
// already gathered.
func (m *Manager) DemoteLocal(k kv.Key) (vals []float32, seqs []uint32) {
	st := m.stripeOf(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	if m.flags[k].Load() == 0 {
		return nil, nil
	}
	m.flags[k].Store(0)
	if p, ok := st.pending[k]; ok {
		vals = append(vals, p...)
		seqs = append(seqs, 0)
		delete(st.pending, k)
	}
	for _, e := range st.inflight[k] {
		vals = append(vals, e.delta...)
		seqs = append(seqs, e.seq)
	}
	delete(st.inflight, k)
	m.replica.Take(k)
	return vals, seqs
}

// ApplyDemoteAck folds one origin's residual delta segments for a demoted
// key into the authoritative value at the home node. The pending segment
// (seq 0) is always folded — it never travelled in a sync message. A sent
// segment is folded only if its round has not been applied through the sync
// path yet; either way the round is recorded as a fold barrier so the sync
// message, when (or if) it arrives, skips k. This is the exactly-once
// argument for deltas crossing a demotion.
func (m *Manager) ApplyDemoteAck(k kv.Key, origin int32, vals []float32, seqs []uint32) {
	l := m.cfg.Layout.Len(k)
	m.homeMu.Lock()
	defer m.homeMu.Unlock()
	src := 0
	for _, s := range seqs {
		seg := vals[src : src+l]
		src += l
		if s == 0 || seqAfter(s, m.applied[origin]) {
			m.mergeHomeLocked(k, seg)
		}
		if s != 0 {
			b := m.barrier[k]
			if b == nil {
				b = make(map[int32]uint32)
				m.barrier[k] = b
			}
			if cur, ok := b[origin]; !ok || seqAfter(s, cur) {
				b[origin] = s
			}
		}
	}
}

// FinalizeDemote ends k's replication at its home node after every replica
// acknowledged: the home's own unsynced pending deltas are folded in, the
// authoritative value is returned (ownership transfers to the caller, who
// re-installs it in the relocation store), and all replication state for k
// is dropped. The fold barriers persist: a sync round that was in flight
// while the demote ran may arrive arbitrarily late.
func (m *Manager) FinalizeDemote(k kv.Key) []float32 {
	st := m.stripeOf(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	if m.flags[k].Load() == 0 {
		panic(fmt.Sprintf("replication: FinalizeDemote(%d): not replicated at node %d", k, m.cfg.Node))
	}
	m.flags[k].Store(0)
	m.homeMu.Lock()
	v, ok := m.auth[k]
	if !ok {
		m.homeMu.Unlock()
		panic(fmt.Sprintf("replication: FinalizeDemote(%d): node %d is not the home", k, m.cfg.Node))
	}
	if p, ok := st.pending[k]; ok {
		for i, d := range p {
			v[i] += d
		}
		delete(st.pending, k)
	}
	delete(m.auth, k)
	delete(m.dirty, k)
	m.homeMu.Unlock()
	delete(st.inflight, k) // own-homed keys never have in-flight deltas
	m.replica.Take(k)
	return v
}

// AuthValue returns a copy of the authoritative merged value of a key homed
// at this node (for seeding new replicas during a promotion).
func (m *Manager) AuthValue(k kv.Key) []float32 {
	m.homeMu.Lock()
	defer m.homeMu.Unlock()
	a, ok := m.auth[k]
	if !ok {
		panic(fmt.Sprintf("replication: node %d is not home of key %d", m.cfg.Node, k))
	}
	v := make([]float32, len(a))
	copy(v, a)
	return v
}

// Flush runs one sync round immediately (in addition to the background
// interval): it drains every stripe's pending deltas — merging the shard
// outputs into one ReplicaSync per home node before dispatch, so the round
// costs O(nodes) messages however many stripes contributed — and, in this
// node's home role, broadcasts refreshed values for keys whose merged value
// changed. Safe to call concurrently with everything else. Messages are
// assembled under the stripe/home locks but sent after their release (see
// sendMu).
func (m *Manager) Flush() {
	start := time.Now()
	m.sendMu.Lock()
	defer m.sendMu.Unlock()
	out := m.syncRound(nil)
	out = m.broadcast(out)
	for _, o := range out {
		m.cfg.Send(o.dest, o.m)
		m.cfg.Stats.ReplicaSyncMessages.Inc()
	}
	m.cfg.Stats.ReplicaSyncTime.Observe(time.Since(start))
}

// syncRound drains the pending buffers of all stripes: deltas for keys
// homed here are folded into the authoritative value directly; the rest
// move — atomically per stripe — into the in-flight buffer and are appended
// to out as one ReplicaSync message per home node, merged across stripes.
func (m *Manager) syncRound(out []outMsg) []outMsg {
	// seq is only read and written under sendMu (held for the whole
	// round), so the round's number can be chosen up front and committed
	// only if the round actually drained anything.
	seq := m.seq + 1
	drained := false
	var groups map[int]*msg.ReplicaSync
	for i := range m.stripes {
		st := &m.stripes[i]
		st.mu.Lock()
		for k, delta := range st.pending {
			drained = true
			home := m.cfg.Home.NodeOf(k)
			if home == m.cfg.Node {
				m.homeMu.Lock()
				m.mergeHomeLocked(k, delta)
				m.homeMu.Unlock()
				continue
			}
			st.inflight[k] = append(st.inflight[k], inflightDelta{seq: seq, delta: delta})
			if groups == nil {
				groups = make(map[int]*msg.ReplicaSync)
			}
			g := groups[home]
			if g == nil {
				g = &msg.ReplicaSync{Origin: int32(m.cfg.Node), Seq: seq}
				groups[home] = g
			}
			g.Keys = append(g.Keys, k)
			g.Vals = append(g.Vals, delta...)
		}
		clear(st.pending)
		st.mu.Unlock()
	}
	if drained {
		m.seq = seq
	}
	for home, g := range groups {
		out = append(out, outMsg{dest: home, m: g})
	}
	return out
}

// mergeHomeLocked folds one delta into the authoritative value of a key
// homed at this node and marks it for the next refresh broadcast. homeMu
// must be held.
func (m *Manager) mergeHomeLocked(k kv.Key, delta []float32) {
	a, ok := m.auth[k]
	if !ok {
		panic(fmt.Sprintf("replication: node %d is not home of key %d", m.cfg.Node, k))
	}
	for i, d := range delta {
		a[i] += d
	}
	m.dirty[k] = true
}

// broadcast fans the merged values of all dirty keys homed at this node out
// to every other node (appending one ReplicaRefresh per destination to out)
// and installs them into the local replica directly. The values are copied
// into the message under homeMu, so sending after release cannot race with
// further merges.
func (m *Manager) broadcast(out []outMsg) []outMsg {
	m.homeMu.Lock()
	if len(m.dirty) == 0 {
		m.homeMu.Unlock()
		return out
	}
	keys := make([]kv.Key, 0, len(m.dirty))
	var vals []float32
	for k := range m.dirty {
		keys = append(keys, k)
		vals = append(vals, m.auth[k]...)
	}
	clear(m.dirty)
	acks := make(map[int32]uint32, m.cfg.Nodes)
	for dest := 0; dest < m.cfg.Nodes; dest++ {
		acks[int32(dest)] = m.applied[int32(dest)]
	}
	m.homeMu.Unlock()
	for dest := 0; dest < m.cfg.Nodes; dest++ {
		if dest == m.cfg.Node {
			continue
		}
		out = append(out, outMsg{dest: dest, m: &msg.ReplicaRefresh{
			Origin: int32(m.cfg.Node),
			Ack:    acks[int32(dest)],
			Keys:   keys,
			Vals:   vals,
		}})
	}
	// Install locally: this node's own deltas for its homed keys are merged
	// at sync time (never in flight), so the replica view is simply the
	// merged value plus any deltas pushed since.
	src := 0
	for _, k := range keys {
		l := m.cfg.Layout.Len(k)
		st := m.stripeOf(k)
		st.mu.Lock()
		m.installLocked(st, k, vals[src:src+l])
		st.mu.Unlock()
		src += l
	}
	return out
}

// HandleSync runs at the home node on the shard-0 server goroutine: fold the
// deltas into the authoritative values, record the origin's sync round for
// acknowledgment, and mark the keys for the next refresh broadcast. Keys at
// or below the origin's demote fold barrier are skipped — their deltas were
// already folded through the demote acknowledgement (DemoteLocal gathers
// every in-flight round, so no sync for a demoted key can carry a round
// above its barrier).
func (m *Manager) HandleSync(t *msg.ReplicaSync) {
	m.homeMu.Lock()
	defer m.homeMu.Unlock()
	src := 0
	for _, k := range t.Keys {
		l := m.cfg.Layout.Len(k)
		if w, ok := m.barrier[k][t.Origin]; ok && !seqAfter(t.Seq, w) {
			src += l
			continue
		}
		m.mergeHomeLocked(k, t.Vals[src:src+l])
		src += l
	}
	if seqAfter(t.Seq, m.applied[t.Origin]) {
		m.applied[t.Origin] = t.Seq
	}
}

// seqAfter reports whether sync round a is later than b in serial-number
// arithmetic, so comparisons stay correct across uint32 wraparound (at a
// 1 ms interval the counter wraps after ~50 days).
func seqAfter(a, b uint32) bool { return int32(a-b) > 0 }

// HandleRefresh runs at a replica node on the shard-0 server goroutine:
// retire the in-flight deltas the home has acknowledged, then install each
// merged value plus this node's still-unmerged deltas into the local
// replica.
func (m *Manager) HandleRefresh(t *msg.ReplicaRefresh) {
	src := 0
	for _, k := range t.Keys {
		l := m.cfg.Layout.Len(k)
		st := m.stripeOf(k)
		st.mu.Lock()
		m.retireLocked(st, k, t.Ack)
		m.installLocked(st, k, t.Vals[src:src+l])
		st.mu.Unlock()
		src += l
	}
}

// retireLocked drops in-flight deltas of k that the home acknowledged
// (seq <= ack): they are reflected in the refreshed value. The key's stripe
// lock must be held.
func (m *Manager) retireLocked(st *stripe, k kv.Key, ack uint32) {
	fl := st.inflight[k]
	keep := fl[:0]
	for _, e := range fl {
		if seqAfter(e.seq, ack) {
			keep = append(keep, e)
		}
	}
	if len(keep) == 0 {
		delete(st.inflight, k)
		return
	}
	st.inflight[k] = keep
}

// installLocked sets the local replica of k to merged plus every local delta
// not yet reflected in merged (in-flight and pending), preserving
// read-your-writes across the install. The key's stripe lock must be held.
// Keys no longer replicated here are dropped: a refresh (or a home-side
// broadcast that copied its keys under homeMu) may land after a demotion
// cleared the flag, and installing then would resurrect a removed entry.
func (m *Manager) installLocked(st *stripe, k kv.Key, merged []float32) {
	if m.flags[k].Load() == 0 {
		return
	}
	v := make([]float32, len(merged))
	copy(v, merged)
	for _, e := range st.inflight[k] {
		for i, d := range e.delta {
			v[i] += d
		}
	}
	if p, ok := st.pending[k]; ok {
		for i, d := range p {
			v[i] += d
		}
	}
	m.replica.Set(k, v)
}

// ReadAuthoritative reads the merged value of a key homed at this node. It
// reports false, leaving dst untouched, when this node holds no
// authoritative value for k: k is homed elsewhere, or is not replicated
// here (yet, or any more). Only meaningful in quiescent states after the
// sync cycle converged (deltas still pending or in flight elsewhere are not
// included).
func (m *Manager) ReadAuthoritative(k kv.Key, dst []float32) bool {
	m.homeMu.Lock()
	defer m.homeMu.Unlock()
	a, ok := m.auth[k]
	copy(dst, a)
	return ok
}

// ReadReplica reads this node's current replica view of k without touching
// the access counters (for tests and convergence checks).
func (m *Manager) ReadReplica(k kv.Key, dst []float32) {
	if !m.replica.Read(k, dst) {
		panic(fmt.Sprintf("replication: replica of key %d missing at node %d", k, m.cfg.Node))
	}
}
