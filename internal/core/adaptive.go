package core

import (
	"fmt"
	"time"

	"lapse/internal/adaptive"
	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/msg"
)

// This file wires the adaptive controller (internal/adaptive) into the
// relocation and replication machinery: the per-node report ticker, the
// msg.Manage handlers, and the live per-key transitions between the three
// management states (home/relocated ownership ↔ replication).
//
// All transition state of a key mutates only on the shard(k) server goroutine
// of the key's home node — Manage messages are key-addressed, so they arrive
// there — which serializes every step of a transition against the key's
// operation stream and against competing transitions. A key with an entry in
// policyShard.transitioning is mid-transition: the classifier skips it (the
// Busy view) and arriving Localizes are deferred until the transition
// settles.

// transition kinds.
const (
	transPromote = iota // relocation/static -> replicated
	transDemote         // replicated -> owned at home
)

// transition is the home-side state of one in-flight management transition.
type transition struct {
	kind int
	// acksLeft counts outstanding ManageDemoteAck replies (demote only).
	acksLeft int
	// deferred holds Localize requests that arrived mid-transition, replayed
	// (demote) or answered by the replicate broadcast (promote) at the end.
	deferred []deferredLocalize
}

// deferredLocalize is one Localize for one key held back by a transition.
type deferredLocalize struct {
	origin int32
	id     uint64
}

// startController spawns the node's report ticker: every tick it snapshots
// the tracker's hottest keys, decays the tracker, and sends each (home node,
// shard) group of keys one ManageReport. Reports use the node Send path like
// any other message, including self-delivery for keys homed here.
func (nd *node) startController(cfg adaptive.Config) {
	nd.ctlStop = make(chan struct{})
	nd.ctlDone = make(chan struct{})
	go func() {
		defer close(nd.ctlDone)
		t := time.NewTicker(cfg.Tick)
		defer t.Stop()
		var epoch uint32
		for {
			select {
			case <-nd.ctlStop:
				return
			case <-t.C:
				epoch++
				nd.reportTick(cfg, epoch)
			}
		}
	}()
}

// stopController halts the report ticker (no-op if it never started).
func (nd *node) stopController() {
	if nd.ctlStop == nil {
		return
	}
	close(nd.ctlStop)
	<-nd.ctlDone
}

// replicatedReportEvery throttles steady-state report traffic: a key this
// origin already holds a replica of needs no further promotion decision at
// its home, only a periodic keep-alive that holds off demotion, so it is
// reported every few ticks instead of every tick. The interval must stay
// well inside the classifier's cold-streak window (ColdStreakEpochs) or the
// keep-alives of a still-hot key would arrive too late to stop its demotion.
const replicatedReportEvery = 4

// reportTick sends one round of tracker reports. Manage messages are
// key-addressed, so the hot keys are grouped per (home node, shard) to keep
// each message shard-pure. Origins that stop reporting a key implicitly
// retract it: classifiers expire reports older than a few epochs.
func (nd *node) reportTick(cfg adaptive.Config, epoch uint32) {
	hot := nd.tracker.Hot(cfg.ReportTopK)
	nd.tracker.Decay()
	keepAlive := epoch%replicatedReportEvery == 0
	type group struct{ home, shard int }
	var groups map[group]*msg.Manage
	for _, f := range hot {
		if !keepAlive && nd.rep != nil && nd.rep.Replicated(f.Key) {
			continue
		}
		g := group{home: nd.sys.home.NodeOf(f.Key), shard: msg.ShardOfKey(f.Key, len(nd.sh))}
		if groups == nil {
			groups = make(map[group]*msg.Manage)
		}
		m := groups[g]
		if m == nil {
			m = &msg.Manage{Kind: msg.ManageReport, Origin: int32(nd.id), Epoch: epoch}
			groups[g] = m
		}
		m.Keys = append(m.Keys, f.Key)
		m.Vals = append(m.Vals, float32(f.Count))
	}
	for g, m := range groups {
		nd.srv.Send(g.home, m)
	}
	// Idle sweep: advance this home's own classifier clocks even when no
	// reports flow anywhere, so a replicated key whose traffic stopped
	// entirely still accumulates the cold streak that demotes it. One
	// self-addressed sweep per shard; the single key only selects the shard
	// (ShardOfKey(s, shards) == s for s < shards).
	if nd.sh[0].classifier != nil {
		for s := range nd.sh {
			nd.srv.Send(nd.id, &msg.Manage{
				Kind: msg.ManageSweep, Origin: int32(nd.id), Epoch: epoch, Keys: []kv.Key{kv.Key(s)}})
		}
	}
}

// handleManage dispatches one adaptive-management or lease-revoke message on
// the shard goroutine owning its keys.
func (sh *policyShard) handleManage(m *msg.Manage) {
	switch m.Kind {
	case msg.ManageReport:
		if sh.classifier == nil {
			return // adaptive management disabled; stray report
		}
		sh.runClassifier(sh.classifier.Ingest(int(m.Origin), m.Epoch, m.Keys, m.Vals))
	case msg.ManageSweep:
		if sh.classifier == nil {
			return // adaptive management disabled; stray sweep
		}
		sh.runClassifier(sh.classifier.Sweep(m.Epoch))
	case msg.ManageReplicate:
		src := 0
		for _, k := range m.Keys {
			l := sh.nd.sys.layout.Len(k)
			sh.enterReplica(k, m.Vals[src:src+l])
			src += l
		}
	case msg.ManageUnreplicate:
		for _, k := range m.Keys {
			sh.exitReplica(k)
		}
	case msg.ManageDemoteAck:
		sh.applyDemoteAck(m)
	case msg.ManageLocalize:
		for _, k := range m.Keys {
			sh.localizeHere(k)
		}
	case msg.ManageRevoke:
		if sh.nd.leases == nil {
			return // serving disabled here; nothing was leased
		}
		for _, k := range m.Keys {
			if sh.nd.rep.DropLease(k) {
				sh.stats.LeaseInvalidations.Inc()
			}
		}
	default:
		panic(fmt.Sprintf("core: unknown manage kind %v at node %d", m.Kind, sh.rt.Node()))
	}
}

// runClassifier traces and executes one batch of classifier decisions (from
// a report ingest or an idle sweep).
func (sh *policyShard) runClassifier(acts []adaptive.Action) {
	for _, a := range acts {
		switch a.Kind {
		case adaptive.ActReplicate:
			sh.trace.Record(sh.nd.id, sh.rt.Shard(), metrics.TracePromote, a.Key, -1, sh.nd.id, a.Detail)
		case adaptive.ActDemote:
			sh.trace.Record(sh.nd.id, sh.rt.Shard(), metrics.TraceDemote, a.Key, sh.nd.id, -1, a.Detail)
		}
		sh.execute(a)
	}
}

// execute runs one classifier decision. The classifier already filtered busy
// and recently changed keys; each transition re-validates the live state it
// depends on and degrades to a no-op when a race got there first (the
// controller simply retries on a later tick).
func (sh *policyShard) execute(a adaptive.Action) {
	switch a.Kind {
	case adaptive.ActReplicate:
		sh.beginReplicate(a.Key)
	case adaptive.ActDemote:
		sh.beginDemote(a.Key)
	case adaptive.ActRelocate:
		sh.stats.AdaptRelocations.Inc()
		sh.trace.Record(sh.nd.id, sh.rt.Shard(), metrics.TraceAdaptRelocate, a.Key,
			int(sh.nd.owner[a.Key].Load()), a.Dest, a.Detail)
		if a.Dest == sh.nd.id {
			sh.localizeHere(a.Key)
			return
		}
		sh.rt.SendOrDispatch(a.Dest, &msg.Manage{
			Kind: msg.ManageLocalize, Origin: int32(sh.nd.id), Keys: []kv.Key{a.Key}})
	}
}

// beginReplicate starts promoting k into replication at its home node. If
// the key currently lives elsewhere it is first recalled through the
// ordinary relocation protocol (owner swap + RelocInstruct, with a queue
// catching accesses that arrive meanwhile); the queue-empty hook in
// drainQueue then finishes the promotion when the transfer lands. A key
// already owned here finishes immediately.
func (sh *policyShard) beginReplicate(k kv.Key) {
	nd := sh.nd
	if _, busy := sh.transitioning[k]; busy || nd.state[k].Load() == stateReplicated {
		return
	}
	owner := int(nd.owner[k].Load())
	if owner == nd.id {
		if nd.state[k].Load() != stateOwned {
			return // mid-arrival (a relocation to here is draining); retry later
		}
		sh.transitioning[k] = &transition{kind: transPromote}
		sh.queueMu.Lock()
		nd.state[k].Store(stateIncoming)
		sh.queues[k] = &keyQueue{}
		sh.queueMu.Unlock()
		sh.finishReplicate(k)
		return
	}
	// Recall: make this node the owner, queue accesses, and instruct the
	// current owner to transfer the key here.
	sh.queueMu.Lock()
	if nd.state[k].Load() != stateNotHere {
		// A relocation toward this node is already in flight (a co-located
		// worker's Localize owns the queue); retry on a later tick.
		sh.queueMu.Unlock()
		return
	}
	nd.state[k].Store(stateIncoming)
	sh.queues[k] = &keyQueue{}
	sh.queueMu.Unlock()
	sh.transitioning[k] = &transition{kind: transPromote}
	prev := int(nd.owner[k].Swap(int32(nd.id)))
	sh.rt.SendOrDispatch(prev, &msg.RelocInstruct{Dest: int32(nd.id), Keys: []kv.Key{k}})
}

// finishReplicate completes a promotion once the key's value is in the home
// store: drain anything still queued into the store, then — atomically with
// respect to worker enqueues — move the value into the replication manager,
// flip the state to Replicated, and drop the queue. Afterwards every other
// node receives the value in a ManageReplicate broadcast; Localizes deferred
// during the transition are answered by that same broadcast (their origins
// complete the pending localize when the replica is installed).
func (sh *policyShard) finishReplicate(k kv.Key) {
	nd := sh.nd
	var v []float32
	for {
		sh.queueMu.Lock()
		q := sh.queues[k]
		if q == nil || len(q.entries) == 0 {
			v = nd.store.Take(k)
			if v == nil {
				panic(fmt.Sprintf("core: promote of key %d at node %d: value missing", k, nd.id))
			}
			nd.rep.EnterHomeKey(k, v)
			delete(sh.queues, k)
			nd.state[k].Store(stateReplicated)
			sh.queueMu.Unlock()
			break
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
			// handleLocalize defers every Localize for a transitioning key,
			// so no instruct can be issued against the home mid-promotion.
			panic(fmt.Sprintf("core: instruct queued during promotion of key %d", k))
		}
	}
	if nd.leased != nil && nd.leased[k].Load() != 0 {
		// The key enters replication with outstanding serving leases. The
		// key-addressed revokes go out ahead of the ManageReplicate
		// broadcast below, on the same (link, shard) streams as any grant
		// still in flight, so every holder drops its lease before it can
		// read the replica.
		nd.revokeLeases(k)
	}
	delete(sh.transitioning, k)
	sh.stats.AdaptPromotions.Inc()
	for dest := 0; dest < nd.sys.cl.Nodes(); dest++ {
		if dest == nd.id {
			continue
		}
		sh.rt.SendOrDispatch(dest, &msg.Manage{
			Kind: msg.ManageReplicate, Origin: int32(nd.id), Keys: []kv.Key{k}, Vals: v})
	}
	// Home-side localize waiters (a co-located worker's Localize raced the
	// promotion) complete here; remote waiters complete via the broadcast.
	sh.rt.Pending().CompleteLocalizeKeys([]kv.Key{k}, sh.stats)
}

// enterReplica installs a replica of k at a non-home node (ManageReplicate).
// If a relocation of k toward this node is in flight — the localize that
// raced the promotion will never be answered by a transfer — its queue is
// adopted: queued accesses drain into the replica and the localize waiters
// complete. Duplicate installs (broadcast plus localize reply) are no-ops.
func (sh *policyShard) enterReplica(k kv.Key, v []float32) {
	nd := sh.nd
	sh.queueMu.Lock()
	if nd.state[k].Load() == stateReplicated {
		sh.queueMu.Unlock()
		return
	}
	nd.rep.EnterKey(k, v)
	q := sh.queues[k]
	delete(sh.queues, k)
	nd.state[k].Store(stateReplicated)
	sh.queueMu.Unlock()
	if q != nil {
		sh.trace.Record(nd.id, sh.rt.Shard(), metrics.TraceQueueAdopt, k, -1, nd.id,
			fmt.Sprintf("entries=%d", len(q.entries)))
		for _, e := range q.entries {
			sh.stats.QueueWait.Observe(time.Since(e.at))
			switch {
			case e.local != nil:
				sh.applyQueuedLocalReplica(k, e.local)
			case e.remote != nil:
				sh.applyQueuedRemoteReplica(k, e.remote)
			case e.instr != nil:
				// An instruct is only queued while this node is the key's
				// registered owner; the promoting home recalled the key and
				// waited for the transfer before broadcasting, so the queue
				// it adopts here can only hold operations.
				panic(fmt.Sprintf("core: instruct queued at node %d when key %d became replicated", nd.id, k))
			}
		}
	}
	sh.rt.Pending().CompleteLocalizeKeys([]kv.Key{k}, sh.stats)
}

// applyQueuedLocalReplica completes a queued local worker op against the
// fresh replica (the key became replicated while the op waited for a
// relocation that was superseded).
func (sh *policyShard) applyQueuedLocalReplica(k kv.Key, op *localOp) {
	nd := sh.nd
	switch op.t {
	case msg.OpPull:
		if !nd.rep.Pull(k, op.dst) {
			panic(fmt.Sprintf("core: queued local pull of %d failed after replication", k))
		}
	case msg.OpPush:
		if !nd.rep.Push(k, op.vals) {
			panic(fmt.Sprintf("core: queued local push of %d failed after replication", k))
		}
	}
	sh.rt.Pending().ClaimOffset(op.id, k, op.off)
	sh.rt.Pending().FinishKeys(op.id, 1)
}

// applyQueuedRemoteReplica answers a queued forwarded op from the fresh
// replica.
func (sh *policyShard) applyQueuedRemoteReplica(k kv.Key, m *msg.Op) {
	nd := sh.nd
	l := nd.sys.layout.Len(k)
	switch m.Type {
	case msg.OpPull:
		buf := make([]float32, l)
		if !nd.rep.Pull(k, buf) {
			panic(fmt.Sprintf("core: queued remote pull of %d failed after replication", k))
		}
		sh.rt.SendOrDispatch(int(m.Origin), &msg.OpResp{Type: msg.OpPull, ID: m.ID,
			Responder: int32(nd.id), Keys: []kv.Key{k}, Vals: buf})
	case msg.OpPush:
		if !nd.rep.Push(k, m.Vals) {
			panic(fmt.Sprintf("core: queued remote push of %d failed after replication", k))
		}
		sh.rt.SendOrDispatch(int(m.Origin), &msg.OpResp{Type: msg.OpPush, ID: m.ID,
			Responder: int32(nd.id), Keys: []kv.Key{k}})
	}
}

// beginDemote starts returning a replicated key to plain ownership at its
// home: every other node is told to drop its replica and send back the
// deltas the sync cycle has not delivered yet. The key stays replicated
// (and servable) at the home until the last acknowledgement arrives.
func (sh *policyShard) beginDemote(k kv.Key) {
	nd := sh.nd
	if _, busy := sh.transitioning[k]; busy || nd.state[k].Load() != stateReplicated {
		return
	}
	n := nd.sys.cl.Nodes()
	sh.transitioning[k] = &transition{kind: transDemote, acksLeft: n - 1}
	if n == 1 {
		sh.finalizeDemote(k)
		return
	}
	for dest := 0; dest < n; dest++ {
		if dest == nd.id {
			continue
		}
		sh.rt.SendOrDispatch(dest, &msg.Manage{
			Kind: msg.ManageUnreplicate, Origin: int32(nd.id), Keys: []kv.Key{k}})
	}
}

// exitReplica handles ManageUnreplicate at a replica node: stop serving k
// locally (worker accesses fail over to the network path the moment the
// replication flag clears) and acknowledge with the unsynced delta segments.
// The ack travels the same (node, shard) link as operations for k, staying
// FIFO with them.
func (sh *policyShard) exitReplica(k kv.Key) {
	nd := sh.nd
	vals, seqs := nd.rep.DemoteLocal(k)
	nd.state[k].Store(stateNotHere)
	sh.rt.SendOrDispatch(nd.sys.home.NodeOf(k), &msg.Manage{
		Kind: msg.ManageDemoteAck, Origin: int32(nd.id), Keys: []kv.Key{k}, Vals: vals, Seqs: seqs})
}

// applyDemoteAck folds one replica's residual deltas at the home and, when
// the last replica has answered, finalizes the demotion.
func (sh *policyShard) applyDemoteAck(m *msg.Manage) {
	nd := sh.nd
	if len(m.Keys) != 1 {
		panic(fmt.Sprintf("core: demote ack with %d keys", len(m.Keys)))
	}
	k := m.Keys[0]
	tr := sh.transitioning[k]
	if tr == nil || tr.kind != transDemote {
		panic(fmt.Sprintf("core: demote ack for key %d without demote in flight at node %d", k, nd.id))
	}
	nd.rep.ApplyDemoteAck(k, m.Origin, m.Vals, m.Seqs)
	tr.acksLeft--
	if tr.acksLeft == 0 {
		sh.finalizeDemote(k)
	}
}

// finalizeDemote completes a demotion at the home: fold the home's own
// residual deltas, move the authoritative value back into the relocation
// store, reopen the Owned fast path, and replay Localizes deferred during
// the transition through the normal relocation protocol. The owner table
// still names the home (it has since the promotion), so routing is already
// correct the instant the state flips.
func (sh *policyShard) finalizeDemote(k kv.Key) {
	nd := sh.nd
	v := nd.rep.FinalizeDemote(k)
	sh.queueMu.Lock()
	nd.store.Set(k, v)
	nd.state[k].Store(stateOwned)
	sh.queueMu.Unlock()
	tr := sh.transitioning[k]
	delete(sh.transitioning, k)
	sh.stats.AdaptDemotions.Inc()
	for _, d := range tr.deferred {
		sh.replayLocalize(k, d)
	}
}

// replayLocalize re-executes one deferred Localize after a demotion: the
// standard home-side step — swap the owner, instruct the previous one.
// Deferred requests replay in arrival order, chaining through the usual
// queued-instruct machinery when several origins competed.
func (sh *policyShard) replayLocalize(k kv.Key, d deferredLocalize) {
	prev := int(sh.nd.owner[k].Swap(d.origin))
	sh.rt.SendOrDispatch(prev, &msg.RelocInstruct{ID: d.id, Dest: d.origin, Keys: []kv.Key{k}})
}

// localizeHere starts relocating k to this node from the server side (a
// ManageLocalize hint, or the home recalling a cold stray key): mark the key
// incoming, open its queue, and send the ordinary Localize to the home. The
// queue precedes the request on the wire, so accesses that arrive before
// the transfer are caught exactly as in the worker-initiated protocol. No
// pending-table waiter is registered — nothing blocks on the arrival.
func (sh *policyShard) localizeHere(k kv.Key) {
	nd := sh.nd
	sh.queueMu.Lock()
	if nd.state[k].Load() != stateNotHere {
		sh.queueMu.Unlock()
		return // already here, arriving, or replicated
	}
	nd.state[k].Store(stateIncoming)
	sh.queues[k] = &keyQueue{}
	sh.queueMu.Unlock()
	home := nd.sys.home.NodeOf(k)
	sh.rt.SendOrDispatch(home, &msg.Localize{Origin: int32(nd.id), Keys: []kv.Key{k}})
}
