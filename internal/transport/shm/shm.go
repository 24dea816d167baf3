// Package shm implements transport.Network over lock-free shared-memory
// rings for co-located processes. Where the tcp transport pays framing
// copies, kernel socket buffers, and at least one syscall per coalesced
// batch, this transport writes the pooled msg encode buffers straight into a
// mmap-ed single-producer single-consumer ring — no re-encode, no kernel
// round-trip on the hot path — and parks idle peers on doorbell FIFOs read
// through the runtime netpoller, so waiting costs no CPU and no P (see
// ring.go for the wakeup protocol).
//
// Topology: one ring file per directed (src, dst, shard) link, created by
// the receiving instance under Config.Dir and opened by the sender. Keeping
// shards on separate rings makes each ring strictly SPSC (one sender
// goroutine, one consumer goroutine) and preserves the per-(link, shard)
// FIFO invariant by construction: a ring is a FIFO, and every (link, shard)
// class has exactly one.
//
// Sending: the sender encodes into a pooled buffer (msg.GetBuf), picks the
// shard ring via msg.ShardOf — the same classification the receiver's
// decoder would compute, as messages are shard-pure — and, when the link's
// writer goroutine is idle, copies the frame into the ring inline without
// any goroutine hop. Only when a ring fills does the writer goroutine take
// over, blocking on ring space so callers never do.
//
// Deployments mix transports: Config.UseRing marks which destinations are
// ring-reachable (co-located); traffic to other nodes flows through
// Config.Fallback, a tcp transport whose inboxes are pumped into this
// network's, so consumers see one merged inbox per (node, shard). If a ring
// cannot be established at all (peer missing, unsupported platform), the
// link falls back to TCP as a unit — before its first ring frame — so each
// (link, shard) stream stays on a single FIFO path for its whole life.
package shm

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lapse/internal/msg"
	"lapse/internal/transport"
	"lapse/internal/transport/tcp"
)

// Config parameterizes a shared-memory transport instance.
type Config struct {
	// Dir is the directory holding the ring files. All co-located instances
	// of a deployment must agree on it. Prefer a tmpfs (e.g. /dev/shm).
	Dir string
	// Nodes is the cluster-wide node count.
	Nodes int
	// Local lists the node indices hosted by this process; nil hosts all.
	Local []int
	// Shards is the per-node inbox shard count (default 1); one ring exists
	// per (src, dst, shard). Every process must use the same value.
	Shards int
	// RingSize is the per-ring data size in bytes (default DefaultRingSize,
	// rounded up to a power of two; grown to admit MaxMessage). Every
	// process must use the same value.
	RingSize int
	// InboxSize bounds each local node's total inbox capacity (default
	// 1<<16), divided across its Shards channels like the tcp transport.
	InboxSize int
	// DialTimeout is the total budget for a sender to find a peer's ring
	// file (default 10s; covers peers that start slightly later).
	DialTimeout time.Duration
	// DrainTimeout bounds how long Close waits for in-flight traffic from
	// peers that have not closed yet (default 2s).
	DrainTimeout time.Duration
	// MaxMessage bounds the encoded frame size. 0 means the ring's natural
	// cap (half the ring, so a frame always fits); larger values grow
	// RingSize to admit them.
	MaxMessage int
	// UseRing marks which destination nodes are ring-reachable
	// (co-located). Nil means all. Non-ring destinations require Fallback.
	UseRing []bool
	// Fallback carries traffic to non-ring destinations and receives from
	// non-ring sources; its inboxes are merged into this network's. It is
	// owned by this network once New succeeds: Close closes it.
	Fallback *tcp.Network
}

type ringKey struct{ src, dst, shard int }
type linkKey struct{ src, dst int }

// Network is a shared-memory-ring cluster transport.
type Network struct {
	cfg      Config
	frameCap int
	local    []bool
	ringTo   []bool
	inboxes  [][]chan transport.Envelope // [node][shard]; nil for non-local
	rings    map[ringKey]*ring           // consumer-side rings, created at New

	linkMu sync.Mutex
	links  map[linkKey]*link

	peerMu    sync.Mutex
	peerRings []*ring // producer-opened peer rings, unmapped at Close

	closed    atomic.Bool
	closeOnce sync.Once
	done      chan struct{}
	draining  chan struct{}
	drainBy   atomic.Int64 // unix nanos; valid once draining is closed
	dropped   atomic.Int64

	errMu    sync.Mutex
	firstErr error

	consWg  sync.WaitGroup
	writeWg sync.WaitGroup
	pumpWg  sync.WaitGroup

	remoteMsgs  atomic.Int64
	remoteBytes atomic.Int64
	loopMsgs    atomic.Int64
	loopBytes   atomic.Int64
}

// New creates a shared-memory transport hosting cfg.Local (all nodes when
// nil). It creates and maps every incoming ring before returning, so a peer
// that opens them immediately afterwards cannot miss us. Outgoing rings are
// opened lazily on first Send.
func New(cfg Config) (*Network, error) {
	if !Supported() {
		return nil, errors.New("shm: platform not supported")
	}
	if cfg.Dir == "" {
		return nil, errors.New("shm: Dir is required")
	}
	if cfg.Nodes <= 0 {
		return nil, errors.New("shm: Nodes must be positive")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = 1 << 16
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 2 * time.Second
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingSize
	}
	for cfg.RingSize&(cfg.RingSize-1) != 0 { // round up to a power of two
		cfg.RingSize += cfg.RingSize & -cfg.RingSize
	}
	if cfg.RingSize < minRingSize {
		cfg.RingSize = minRingSize
	}
	if cfg.MaxMessage > 0 && RingSizeFor(cfg.MaxMessage) > cfg.RingSize {
		cfg.RingSize = RingSizeFor(cfg.MaxMessage)
	}
	if cfg.UseRing != nil && len(cfg.UseRing) != cfg.Nodes {
		return nil, fmt.Errorf("shm: UseRing has %d entries for %d nodes", len(cfg.UseRing), cfg.Nodes)
	}
	frameCap := maxFrameFor(uint64(cfg.RingSize))
	if cfg.MaxMessage > 0 && cfg.MaxMessage < frameCap {
		frameCap = cfg.MaxMessage
	}
	n := &Network{
		cfg:      cfg,
		frameCap: frameCap,
		local:    make([]bool, cfg.Nodes),
		ringTo:   make([]bool, cfg.Nodes),
		inboxes:  make([][]chan transport.Envelope, cfg.Nodes),
		rings:    make(map[ringKey]*ring),
		links:    make(map[linkKey]*link),
		done:     make(chan struct{}),
		draining: make(chan struct{}),
	}
	if cfg.Local == nil {
		for i := range n.local {
			n.local[i] = true
		}
	} else {
		for _, node := range cfg.Local {
			if node < 0 || node >= cfg.Nodes {
				return nil, fmt.Errorf("shm: local node %d out of range [0,%d)", node, cfg.Nodes)
			}
			n.local[node] = true
		}
	}
	for i := range n.ringTo {
		n.ringTo[i] = cfg.UseRing == nil || cfg.UseRing[i] || n.local[i]
	}
	if cfg.Fallback == nil {
		for i, ok := range n.ringTo {
			if !ok {
				return nil, fmt.Errorf("shm: node %d is not ring-reachable and no Fallback is set", i)
			}
		}
	}
	if err := os.MkdirAll(cfg.Dir, 0o700); err != nil {
		return nil, fmt.Errorf("shm: ring dir: %w", err)
	}
	// Create every incoming ring: one per (ring-reachable src, local dst,
	// shard). Sources that never send cost only a sparse file.
	for dst := 0; dst < cfg.Nodes; dst++ {
		if !n.local[dst] {
			continue
		}
		perShard := (cfg.InboxSize + cfg.Shards - 1) / cfg.Shards
		n.inboxes[dst] = make([]chan transport.Envelope, cfg.Shards)
		for s := range n.inboxes[dst] {
			n.inboxes[dst][s] = make(chan transport.Envelope, perShard)
		}
		for src := 0; src < cfg.Nodes; src++ {
			if !n.ringTo[src] && !n.local[src] {
				continue // that peer will reach us over the fallback
			}
			for s := 0; s < cfg.Shards; s++ {
				r, err := createRing(cfg.Dir, src, dst, s, uint64(cfg.RingSize))
				if err != nil {
					n.releaseRings()
					return nil, fmt.Errorf("shm: create ring %d->%d/%d: %w", src, dst, s, err)
				}
				n.rings[ringKey{src, dst, s}] = r
			}
		}
	}
	for key, r := range n.rings {
		n.consWg.Add(1)
		go n.consume(r, key.src, key.dst, key.shard)
	}
	if cfg.Fallback != nil {
		for node := 0; node < cfg.Nodes; node++ {
			if !n.local[node] {
				continue
			}
			for s := 0; s < cfg.Shards; s++ {
				n.pumpWg.Add(1)
				go n.pump(node, s)
			}
		}
	}
	return n, nil
}

func (n *Network) releaseRings() {
	for _, r := range n.rings {
		r.close()
	}
}

// Nodes returns the cluster-wide node count.
func (n *Network) Nodes() int { return n.cfg.Nodes }

// Shards returns the per-node inbox shard count.
func (n *Network) Shards() int { return n.cfg.Shards }

// Local reports whether node is hosted by this instance.
func (n *Network) Local(node int) bool { return node >= 0 && node < len(n.local) && n.local[node] }

// RingTo reports whether traffic to node rides a shared-memory ring; false
// means sends to it fall back to the underlying transport (TCP). Observability
// layers record the fallback links in the control-plane trace.
func (n *Network) RingTo(node int) bool { return node >= 0 && node < len(n.ringTo) && n.ringTo[node] }

// Err returns the first failure observed on either the ring paths or the
// fallback transport.
func (n *Network) Err() error {
	n.errMu.Lock()
	err := n.firstErr
	n.errMu.Unlock()
	if err == nil && n.cfg.Fallback != nil {
		err = n.cfg.Fallback.Err()
	}
	return err
}

func (n *Network) fail(err error) {
	n.errMu.Lock()
	if n.firstErr == nil {
		n.firstErr = err
	}
	n.errMu.Unlock()
}

// Send encodes m and writes it onto the (src, dst, shard) ring — inline when
// the link's writer is idle — or routes it through the TCP fallback for
// non-ring destinations. src must be local.
func (n *Network) Send(src, dst int, m any) {
	if !n.Local(src) {
		panic(fmt.Sprintf("shm: Send from non-local node %d", src))
	}
	if dst < 0 || dst >= n.Nodes() {
		panic(fmt.Sprintf("shm: Send to invalid node %d", dst))
	}
	if !n.ringTo[dst] {
		n.cfg.Fallback.Send(src, dst, m)
		return
	}
	bp := msg.GetBuf()
	*bp = msg.AppendTo(*bp, m)
	if len(*bp) > n.frameCap {
		n.fail(fmt.Errorf("shm: message %T of %d bytes exceeds ring frame cap %d", m, len(*bp), n.frameCap))
		n.dropped.Add(1)
		msg.PutBuf(bp)
		return
	}
	// The ring is picked by the sender with the same shard classification
	// the receiver's decoder computes (messages are shard-pure), so each
	// (link, shard) class rides exactly one SPSC FIFO.
	shard := msg.ShardOf(m, n.cfg.Shards)
	l := n.getLink(src, dst)
	if l == nil {
		n.dropped.Add(1)
		msg.PutBuf(bp)
		return
	}
	l.send(bp, shard)
}

// Inbox returns the receive channel of a local node's inbox shard; ring and
// fallback traffic arrive merged. It is closed by Close after draining.
func (n *Network) Inbox(node, shard int) <-chan transport.Envelope {
	if !n.Local(node) {
		panic(fmt.Sprintf("shm: Inbox of non-local node %d", node))
	}
	return n.inboxes[node][shard]
}

// Sleep blocks for d in wall-clock time.
func (n *Network) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Stats returns this instance's traffic counters, ring and fallback combined.
func (n *Network) Stats() transport.Stats {
	s := transport.Stats{
		RemoteMessages:   n.remoteMsgs.Load(),
		RemoteBytes:      n.remoteBytes.Load(),
		LoopbackMessages: n.loopMsgs.Load(),
		LoopbackBytes:    n.loopBytes.Load(),
	}
	if fb := n.cfg.Fallback; fb != nil {
		f := fb.Stats()
		s.RemoteMessages += f.RemoteMessages
		s.RemoteBytes += f.RemoteBytes
		s.LoopbackMessages += f.LoopbackMessages
		s.LoopbackBytes += f.LoopbackBytes
	}
	return s
}

// ResetStats zeroes the traffic counters, including the fallback's.
func (n *Network) ResetStats() {
	n.remoteMsgs.Store(0)
	n.remoteBytes.Store(0)
	n.loopMsgs.Store(0)
	n.loopBytes.Store(0)
	if fb := n.cfg.Fallback; fb != nil {
		fb.ResetStats()
	}
}

// Dropped returns the number of messages discarded, fallback included.
func (n *Network) Dropped() int64 {
	d := n.dropped.Load()
	if fb := n.cfg.Fallback; fb != nil {
		d += fb.Dropped()
	}
	return d
}

func (n *Network) countSent(src, dst, bytes int) {
	if src == dst {
		n.loopMsgs.Add(1)
		n.loopBytes.Add(int64(bytes))
	} else {
		n.remoteMsgs.Add(1)
		n.remoteBytes.Add(int64(bytes))
	}
}

// Close flushes outgoing links into their rings, marks them closed for the
// peers, waits — bounded by DrainTimeout — for in-flight incoming traffic,
// closes the fallback transport, then closes the merged inboxes and removes
// this instance's ring files. Idempotent and safe concurrently with Send.
func (n *Network) Close() {
	n.closeOnce.Do(func() {
		n.closed.Store(true)
		close(n.done)
		// Flush outgoing first so messages sent just before Close are
		// delivered: each writer drains its queue into the rings (bounded
		// by DrainTimeout against a stalled consumer) and then sets the
		// ring's closed flag for the peer's drain.
		n.linkMu.Lock()
		links := make([]*link, 0, len(n.links))
		for _, l := range n.links {
			links = append(links, l)
		}
		n.linkMu.Unlock()
		for _, l := range links {
			l.close()
		}
		n.writeWg.Wait()
		// Rings from sources that never created a link still need their
		// closed flag: this process is their only possible producer.
		for key, r := range n.rings {
			if n.Local(key.src) {
				r.setClosed()
			}
		}
		// Bounded drain of incoming rings: consumers exit once their ring
		// is empty and the producer detached (or never attached), or when
		// the drain budget for laggard peers expires.
		n.drainBy.Store(time.Now().Add(n.cfg.DrainTimeout).UnixNano())
		close(n.draining)
		for _, r := range n.rings {
			r.wakeConsumer()
		}
		n.consWg.Wait()
		if fb := n.cfg.Fallback; fb != nil {
			fb.Close() // flushes fallback traffic, then closes its inboxes
		}
		n.pumpWg.Wait()
		for _, node := range n.inboxes {
			for _, in := range node {
				close(in)
			}
		}
		n.releaseRings()
		n.peerMu.Lock()
		for _, r := range n.peerRings {
			r.close()
		}
		n.peerRings = nil
		n.peerMu.Unlock()
		os.Remove(n.cfg.Dir) // succeeds only for whoever removes the last ring
	})
}

func (n *Network) pastDrainDeadline() bool {
	return time.Now().UnixNano() > n.drainBy.Load()
}

// getLink returns the outgoing link for (src, dst), creating it — and its
// writer goroutine — on first use. Returns nil after Close.
func (n *Network) getLink(src, dst int) *link {
	key := linkKey{src, dst}
	n.linkMu.Lock()
	defer n.linkMu.Unlock()
	if n.closed.Load() {
		return nil
	}
	l, ok := n.links[key]
	if !ok {
		l = &link{n: n, src: src, dst: dst}
		l.cond = sync.NewCond(&l.mu)
		n.links[key] = l
		n.writeWg.Add(1)
		go l.run()
	}
	return l
}

// consume is the consumer goroutine of one incoming ring: it decodes frames
// in ring order into the destination's (node, shard) inbox.
func (n *Network) consume(r *ring, src, dst, shard int) {
	defer n.consWg.Done()
	inbox := n.inboxes[dst][shard]
	for {
		frame, err := r.peek()
		if err != nil {
			n.fail(err)
			return
		}
		if frame == nil {
			select {
			case <-n.draining:
				if r.producerDone() || !r.everAttached() || n.pastDrainDeadline() {
					return
				}
			default:
			}
			r.waitData()
			continue
		}
		sc := msg.GetScratch()
		m, _, err := sc.Decode(frame)
		if err != nil {
			sc.Release()
			n.fail(fmt.Errorf("shm: malformed frame on ring %d->%d/%d: %w", src, dst, shard, err))
			return
		}
		size := len(frame)
		// The scratch decode copied every byte out of the ring, so release
		// the slot before delivery: the producer unblocks sooner.
		r.advance(size)
		env := transport.Envelope{Src: src, Dst: dst, Msg: m, Shard: shard, Bytes: size, Scratch: sc}
		select {
		case inbox <- env:
		case <-n.done:
			// Teardown: deliver if there is room, drop otherwise rather
			// than stalling Close.
			select {
			case inbox <- env:
			default:
				sc.Release()
				n.dropped.Add(1)
			}
		}
	}
}

// pump forwards one (node, shard) inbox of the fallback transport into the
// merged inbox. A single pump per channel preserves the fallback's FIFO.
func (n *Network) pump(node, shard int) {
	defer n.pumpWg.Done()
	inbox := n.inboxes[node][shard]
	for env := range n.cfg.Fallback.Inbox(node, shard) {
		select {
		case inbox <- env:
		case <-n.done:
			select {
			case inbox <- env:
			default:
				env.Recycle()
				n.dropped.Add(1)
			}
		}
	}
}

// frameRef is one queued outgoing frame: a pooled encode buffer plus its
// shard ring. Whoever removes it from the queue owns returning the buffer.
type frameRef struct {
	bp    *[]byte
	shard int32
}

// link is the sending half of one directed ring-reachable node pair. It has
// two producer modes that never overlap: while the writer goroutine is idle
// (direct == true, queue empty), senders copy frames into the shard rings
// inline under mu — the common, goroutine-hop-free path; when a ring fills
// or frames queue up, the writer goroutine is the sole producer until the
// queue drains. Both modes serialize under mu, so each ring keeps exactly
// one producer at a time and stays SPSC.
type link struct {
	n        *Network
	src, dst int

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []frameRef
	rings  []*ring // per shard; set once opened
	direct bool    // writer idle: senders may write inline
	viaTCP bool    // ring establishment failed; frames flow via Fallback
	closed bool
	dead   bool

	// flushBy (unix nanos, 0 = none) bounds ring writes once teardown
	// starts. It is atomic so a writer already blocked on a full ring
	// observes it at its next park without taking mu.
	flushBy atomic.Int64
}

// send hands one encoded frame to the link. Ownership of bp transfers.
func (l *link) send(bp *[]byte, shard int) {
	l.mu.Lock()
	if l.closed || l.dead {
		l.mu.Unlock()
		l.n.dropped.Add(1)
		msg.PutBuf(bp)
		return
	}
	if l.viaTCP {
		l.mu.Unlock()
		l.n.cfg.Fallback.SendEncoded(l.src, l.dst, bp)
		return
	}
	if l.direct {
		if l.rings[shard].tryWrite(*bp) {
			size := len(*bp)
			l.mu.Unlock()
			l.n.countSent(l.src, l.dst, size)
			msg.PutBuf(bp)
			return
		}
		// Ring full: hand producership to the writer, which may block.
		l.direct = false
	}
	l.queue = append(l.queue, frameRef{bp, int32(shard)})
	l.cond.Signal()
	l.mu.Unlock()
}

// close tells the writer to flush remaining frames into the rings — bounded
// by DrainTimeout against a stalled consumer — and mark them closed.
func (l *link) close() {
	l.flushBy.Store(time.Now().Add(l.n.cfg.DrainTimeout).UnixNano())
	l.mu.Lock()
	l.closed = true
	l.cond.Signal()
	l.mu.Unlock()
}

// flushDeadline is the re-evaluated bound handed to blocking ring writes.
func (l *link) flushDeadline() time.Time {
	if v := l.flushBy.Load(); v != 0 {
		return time.Unix(0, v)
	}
	return time.Time{}
}

// die marks the link failed and discards queued frames.
func (l *link) die(err error) {
	l.n.fail(fmt.Errorf("shm: link %d->%d: %w", l.src, l.dst, err))
	l.mu.Lock()
	l.dead = true
	dropped := l.queue
	l.queue = nil
	l.mu.Unlock()
	for _, f := range dropped {
		msg.PutBuf(f.bp)
	}
	l.n.dropped.Add(int64(len(dropped)))
}

// run is the link's writer goroutine: open the shard rings (falling back to
// TCP as a unit if they cannot be established), then serve as the blocking
// producer whenever senders outrun the consumer.
func (l *link) run() {
	defer l.n.writeWg.Done()
	rings, err := l.open()
	if err != nil {
		if l.n.cfg.Fallback != nil {
			l.fallbackToTCP()
			return
		}
		l.die(err)
		return
	}
	l.mu.Lock()
	l.rings = rings
	for {
		for len(l.queue) == 0 && !l.closed {
			l.direct = true
			l.cond.Wait()
		}
		l.direct = false
		batch := l.queue
		l.queue = nil
		closed := l.closed
		l.mu.Unlock()
		for i, f := range batch {
			if !rings[f.shard].write(*f.bp, l.flushDeadline) {
				// Flush deadline expired mid-teardown: drop the remainder.
				for _, g := range batch[i:] {
					msg.PutBuf(g.bp)
				}
				l.n.dropped.Add(int64(len(batch) - i))
				l.detach(rings)
				return
			}
			l.n.countSent(l.src, l.dst, len(*f.bp))
			msg.PutBuf(f.bp)
		}
		l.mu.Lock()
		if closed && len(l.queue) == 0 {
			l.mu.Unlock()
			l.detach(rings)
			return
		}
	}
}

// detach marks the rings closed so the peer's drain can finish.
func (l *link) detach(rings []*ring) {
	for _, r := range rings {
		r.setClosed()
		r.wakeConsumer()
	}
}

// open resolves the link's shard rings: the shared in-process objects for a
// local destination, the peer's mmap-ed files otherwise.
func (l *link) open() ([]*ring, error) {
	n := l.n
	rings := make([]*ring, n.cfg.Shards)
	if n.Local(l.dst) {
		for s := range rings {
			r := n.rings[ringKey{l.src, l.dst, s}]
			r.markAttached()
			rings[s] = r
		}
		return rings, nil
	}
	deadline := time.Now().Add(n.cfg.DialTimeout)
	for s := range rings {
		r, err := openRing(n.cfg.Dir, l.src, l.dst, s, uint64(n.cfg.RingSize), deadline, n.done)
		if err != nil {
			for _, o := range rings {
				if o != nil {
					o.close()
				}
			}
			return nil, err
		}
		rings[s] = r
	}
	n.peerMu.Lock()
	n.peerRings = append(n.peerRings, rings...)
	n.peerMu.Unlock()
	return rings, nil
}

// fallbackToTCP forwards everything queued so far to the TCP fallback in
// order, then flips the link to direct TCP sends. No ring frame was ever
// written, so the whole (link, shard) history rides one FIFO path.
func (l *link) fallbackToTCP() {
	fb := l.n.cfg.Fallback
	for {
		l.mu.Lock()
		if len(l.queue) == 0 {
			l.viaTCP = true
			l.mu.Unlock()
			return
		}
		batch := l.queue
		l.queue = nil
		l.mu.Unlock()
		for _, f := range batch {
			fb.SendEncoded(l.src, l.dst, f.bp)
		}
	}
}

var _ transport.Network = (*Network)(nil)
