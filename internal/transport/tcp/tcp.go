// Package tcp implements transport.Network over real TCP sockets, so a
// cluster can run as multiple OS processes — the deployment mode of the
// paper's actual system (ZeroMQ over TCP) — or as one process exercising
// real loopback connections.
//
// Wire protocol: each directed (src, dst) node pair uses one TCP connection,
// dialed lazily by the sender. A connection starts with a 12-byte handshake
// [magic][src][dst] (little endian uint32s) and then carries a stream of
// messages encoded with the internal/msg codec, whose [kind][payloadLen]
// header makes every frame self-delimiting. A single writer goroutine per
// link preserves send order and coalesces queued frames into one buffered
// write (per-link write buffering); a single reader goroutine per accepted
// connection preserves arrival order into the destination inbox. Together
// with TCP's in-order delivery this gives the per-link FIFO guarantee the
// consistency proofs assume.
//
// A Network instance hosts the nodes listed in Config.Local (all nodes when
// nil, which runs a whole cluster over loopback sockets in one process).
// Each local node listens on its configured address; peer addresses may use
// port 0 placeholders and be learned later through SetAddr, which the tests
// use to wire several in-process instances together.
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lapse/internal/msg"
	"lapse/internal/transport"
)

const (
	handshakeMagic = 0x4C505345 // "LPSE"
	handshakeBytes = 12
	headerBytes    = 5 // the msg codec's kind + payload length prefix
)

// Config parameterizes a TCP transport instance.
type Config struct {
	// Addrs is the listen address of every cluster node (the cluster size
	// is len(Addrs)). Local nodes may use ":0" to pick a free port;
	// non-local entries must be dialable or set later via SetAddr.
	Addrs []string
	// Local lists the node indices hosted by this process. Nil hosts all
	// nodes (single-process loopback deployment).
	Local []int
	// Shards is the number of per-node inbox shards (default 1). Incoming
	// frames are demultiplexed on decode via msg.ShardOf, preserving FIFO
	// per (connection, shard). Every process of a deployment must use the
	// same value, like the node count.
	Shards int
	// InboxSize bounds each local node's total inbox capacity (default
	// 1<<16), divided evenly across its Shards inbox channels so memory
	// and backpressure stay constant as the shard count grows.
	InboxSize int
	// DialTimeout is the total retry budget for establishing one outgoing
	// link (default 10s); it covers peers that start slightly later.
	DialTimeout time.Duration
	// DrainTimeout bounds how long Close waits for in-flight incoming
	// traffic from peers that have not closed yet (default 2s).
	DrainTimeout time.Duration
	// MaxMessage bounds the accepted frame payload size (default 64 MiB),
	// protecting against corrupt length prefixes: the length is validated
	// before any buffer grows to hold the frame.
	MaxMessage int
}

// readSlab is the per-connection read slab size. One kernel read fills the
// slab with as many frames as are available, and the decode loop consumes
// them without further syscalls; the slab grows only for single frames
// larger than it (after MaxMessage validation).
const readSlab = 64 << 10

// Network is a TCP-backed cluster transport.
type Network struct {
	cfg       Config
	local     []bool
	listeners []net.Listener
	inboxes   [][]chan transport.Envelope // [node][shard]; nil for non-local nodes

	addrMu sync.RWMutex
	addrs  []string // effective dial addresses (resolved for local nodes)

	linkMu sync.Mutex
	links  map[linkKey]*link

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	closed    atomic.Bool
	closeOnce sync.Once
	done      chan struct{}
	dropped   atomic.Int64

	errMu    sync.Mutex
	firstErr error

	readWg  sync.WaitGroup // acceptors + per-connection readers
	writeWg sync.WaitGroup // per-link writers

	remoteMsgs  atomic.Int64
	remoteBytes atomic.Int64
	loopMsgs    atomic.Int64
	loopBytes   atomic.Int64
}

type linkKey struct{ src, dst int }

// New creates a transport hosting cfg.Local (all nodes when nil): it binds
// every local listener before returning, so a peer that dials immediately
// afterwards cannot miss us. Outgoing links are dialed lazily on first Send.
func New(cfg Config) (*Network, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("tcp: no node addresses")
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
	if cfg.MaxMessage <= 0 {
		cfg.MaxMessage = 64 << 20
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	n := &Network{
		cfg:       cfg,
		local:     make([]bool, len(cfg.Addrs)),
		listeners: make([]net.Listener, len(cfg.Addrs)),
		inboxes:   make([][]chan transport.Envelope, len(cfg.Addrs)),
		addrs:     append([]string(nil), cfg.Addrs...),
		links:     make(map[linkKey]*link),
		conns:     make(map[net.Conn]struct{}),
		done:      make(chan struct{}),
	}
	if cfg.Local == nil {
		for i := range n.local {
			n.local[i] = true
		}
	} else {
		for _, node := range cfg.Local {
			if node < 0 || node >= len(cfg.Addrs) {
				return nil, fmt.Errorf("tcp: local node %d out of range [0,%d)", node, len(cfg.Addrs))
			}
			n.local[node] = true
		}
	}
	for node, isLocal := range n.local {
		if !isLocal {
			continue
		}
		ln, err := net.Listen("tcp", cfg.Addrs[node])
		if err != nil {
			for _, l := range n.listeners {
				if l != nil {
					l.Close()
				}
			}
			return nil, fmt.Errorf("tcp: node %d listen on %s: %w", node, cfg.Addrs[node], err)
		}
		n.listeners[node] = ln
		n.addrs[node] = ln.Addr().String()
		n.inboxes[node] = make([]chan transport.Envelope, cfg.Shards)
		perShard := (cfg.InboxSize + cfg.Shards - 1) / cfg.Shards
		for s := range n.inboxes[node] {
			n.inboxes[node][s] = make(chan transport.Envelope, perShard)
		}
		n.readWg.Add(1)
		go n.acceptLoop(ln)
	}
	return n, nil
}

// Nodes returns the cluster-wide node count.
func (n *Network) Nodes() int { return len(n.cfg.Addrs) }

// Shards returns the per-node inbox shard count.
func (n *Network) Shards() int { return n.cfg.Shards }

// Local reports whether node is hosted by this instance.
func (n *Network) Local(node int) bool { return node >= 0 && node < len(n.local) && n.local[node] }

// Addr returns the effective address of node: the actual listen address for
// local nodes (resolving ":0"), the configured or SetAddr-provided dial
// address otherwise.
func (n *Network) Addr(node int) string {
	n.addrMu.RLock()
	defer n.addrMu.RUnlock()
	return n.addrs[node]
}

// SetAddr late-binds the dial address of a non-local peer. It must be called
// before the first Send to that node; tests use it to wire several
// in-process instances whose listeners picked their own ports.
func (n *Network) SetAddr(node int, addr string) {
	n.addrMu.Lock()
	defer n.addrMu.Unlock()
	n.addrs[node] = addr
}

// Err returns the first link failure observed (dial, write, or a malformed
// incoming frame). Messages affected by failures are counted in Dropped.
func (n *Network) Err() error {
	n.errMu.Lock()
	defer n.errMu.Unlock()
	return n.firstErr
}

func (n *Network) fail(err error) {
	n.errMu.Lock()
	if n.firstErr == nil {
		n.firstErr = err
	}
	n.errMu.Unlock()
}

// Send encodes m through the msg codec and queues it on the (src, dst) link.
// src must be local. Sends after Close — or on a link whose connection
// failed — are dropped and counted in Dropped, mirroring writes on a closing
// TCP connection.
func (n *Network) Send(src, dst int, m any) {
	if !n.Local(src) {
		panic(fmt.Sprintf("tcp: Send from non-local node %d", src))
	}
	if dst < 0 || dst >= n.Nodes() {
		panic(fmt.Sprintf("tcp: Send to invalid node %d", dst))
	}
	bp := msg.GetBuf()
	*bp = msg.AppendTo(*bp, m)
	n.sendFrame(src, dst, bp)
}

// SendEncoded queues an already-encoded frame — a pooled msg buffer whose
// ownership transfers to the transport — on the (src, dst) link. The shm
// transport uses it to fall back to TCP without re-encoding. It applies the
// same validation, drop accounting, and traffic counting as Send.
func (n *Network) SendEncoded(src, dst int, bp *[]byte) {
	if !n.Local(src) {
		panic(fmt.Sprintf("tcp: Send from non-local node %d", src))
	}
	if dst < 0 || dst >= n.Nodes() {
		panic(fmt.Sprintf("tcp: Send to invalid node %d", dst))
	}
	n.sendFrame(src, dst, bp)
}

func (n *Network) sendFrame(src, dst int, bp *[]byte) {
	if len(*bp) > n.cfg.MaxMessage {
		// Reject on the sender: the receiver would treat the frame as
		// corruption and kill the whole link.
		n.fail(fmt.Errorf("tcp: frame of %d bytes exceeds MaxMessage %d", len(*bp), n.cfg.MaxMessage))
		n.dropped.Add(1)
		msg.PutBuf(bp)
		return
	}
	size := int64(len(*bp))
	l := n.getLink(src, dst)
	if l == nil || !l.enqueue(bp) {
		n.dropped.Add(1)
		msg.PutBuf(bp)
		return
	}
	if src == dst {
		n.loopMsgs.Add(1)
		n.loopBytes.Add(size)
	} else {
		n.remoteMsgs.Add(1)
		n.remoteBytes.Add(size)
	}
}

// Inbox returns the receive channel of a local node's inbox shard. It is
// closed by Close after in-flight messages drain.
func (n *Network) Inbox(node, shard int) <-chan transport.Envelope {
	if !n.Local(node) {
		panic(fmt.Sprintf("tcp: Inbox of non-local node %d", node))
	}
	return n.inboxes[node][shard]
}

// Sleep blocks for d in wall-clock time: on a real transport, computation
// takes as long as it takes.
func (n *Network) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Stats returns this instance's traffic counters (in multi-process
// deployments, each process counts only its own sends).
func (n *Network) Stats() transport.Stats {
	return transport.Stats{
		RemoteMessages:   n.remoteMsgs.Load(),
		RemoteBytes:      n.remoteBytes.Load(),
		LoopbackMessages: n.loopMsgs.Load(),
		LoopbackBytes:    n.loopBytes.Load(),
	}
}

// ResetStats zeroes the traffic counters.
func (n *Network) ResetStats() {
	n.remoteMsgs.Store(0)
	n.remoteBytes.Store(0)
	n.loopMsgs.Store(0)
	n.loopBytes.Store(0)
}

// Dropped returns the number of messages discarded (sent after Close or on a
// failed link, plus undeliverable frames during teardown).
func (n *Network) Dropped() int64 { return n.dropped.Load() }

// Close flushes and closes all outgoing links, stops the listeners, waits —
// bounded by DrainTimeout — for in-flight incoming traffic, then closes the
// local inboxes. It is idempotent and safe to call concurrently with Send.
func (n *Network) Close() {
	n.closeOnce.Do(func() {
		n.closed.Store(true)
		close(n.done)
		// Flush outgoing traffic first: links drain their queues (links
		// still mid-dial get a bounded budget to connect), so messages
		// sent just before Close are delivered, not dropped. Only then
		// stop accepting.
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
		for _, ln := range n.listeners {
			if ln != nil {
				ln.Close()
			}
		}
		// Our own loopback links are flushed and closed now, so local
		// readers will see EOF; bound the wait for remote peers that
		// have not closed their side yet.
		n.connMu.Lock()
		for c := range n.conns {
			c.SetReadDeadline(time.Now().Add(n.cfg.DrainTimeout))
		}
		n.connMu.Unlock()
		n.readWg.Wait()
		for _, node := range n.inboxes {
			for _, in := range node {
				close(in)
			}
		}
	})
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

// link is the sending half of one directed node pair: a queue drained by a
// single writer goroutine over one TCP connection. Queued frames are pooled
// encode buffers (msg.GetBuf); whoever removes a frame from the queue owns
// returning it with msg.PutBuf after the coalesced write (or on discard).
type link struct {
	n        *Network
	src, dst int

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*[]byte
	conn   net.Conn // set by the writer once dialed
	closed bool
	dead   bool // connection failed; enqueues are dropped
}

// enqueue appends one encoded frame; it reports false when the link no
// longer accepts traffic (closed or failed) — the caller then still owns the
// buffer.
func (l *link) enqueue(frame *[]byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.dead {
		return false
	}
	l.queue = append(l.queue, frame)
	l.cond.Signal()
	return true
}

// close tells the writer to flush remaining frames and shut the connection.
// The flush is bounded: a write deadline covers the case of a stalled peer
// whose receive window is full, so Close cannot hang on writeWg.Wait.
func (l *link) close() {
	l.mu.Lock()
	l.closed = true
	if l.conn != nil {
		l.conn.SetWriteDeadline(time.Now().Add(l.n.cfg.DrainTimeout))
	}
	l.cond.Signal()
	l.mu.Unlock()
}

// die marks the link failed and discards queued frames (counted as dropped,
// buffers returned to the pool).
func (l *link) die(err error) {
	l.n.fail(fmt.Errorf("tcp: link %d->%d: %w", l.src, l.dst, err))
	l.mu.Lock()
	l.dead = true
	dropped := l.queue
	l.queue = nil
	l.mu.Unlock()
	for _, bp := range dropped {
		msg.PutBuf(bp)
	}
	l.n.dropped.Add(int64(len(dropped)))
}

// run is the link's writer goroutine: dial (with retries, so peers may start
// later), handshake, then drain the queue in batches — every wakeup writes
// all frames queued so far with one writev. Frames that queue while a writev
// runs share the next one, so a busy link coalesces without waiting, and the
// stream stays strictly FIFO.
func (l *link) run() {
	defer l.n.writeWg.Done()
	conn, err := l.dial()
	if err != nil {
		l.die(err)
		return
	}
	defer conn.Close()
	l.mu.Lock()
	l.conn = conn
	if l.closed {
		// Close ran while we were dialing; apply the bounded-flush
		// deadline it could not set then.
		conn.SetWriteDeadline(time.Now().Add(l.n.cfg.DrainTimeout))
	}
	l.mu.Unlock()
	var hs [handshakeBytes]byte
	binary.LittleEndian.PutUint32(hs[0:4], handshakeMagic)
	binary.LittleEndian.PutUint32(hs[4:8], uint32(l.src))
	binary.LittleEndian.PutUint32(hs[8:12], uint32(l.dst))
	if _, err := conn.Write(hs[:]); err != nil {
		l.die(err)
		return
	}
	var pending net.Buffers
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.closed {
			l.cond.Wait()
		}
		batch := l.queue
		l.queue = nil
		closed := l.closed
		l.mu.Unlock()
		if len(batch) > 0 {
			pending = pending[:0]
			for _, frame := range batch {
				pending = append(pending, *frame)
			}
			_, err := pending.WriteTo(conn)
			// The kernel owns copies of the written bytes now (WriteTo
			// consumes the Buffers view, not the frames), so the pooled
			// encode buffers go back either way.
			for _, frame := range batch {
				msg.PutBuf(frame)
			}
			if err != nil {
				l.die(err)
				return
			}
		}
		if closed {
			return
		}
	}
}

func (l *link) dial() (net.Conn, error) {
	deadline := time.Now().Add(l.n.cfg.DialTimeout)
	shortened := false
	for {
		l.n.addrMu.RLock()
		addr := l.n.addrs[l.dst]
		l.n.addrMu.RUnlock()
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return conn, nil
		}
		// During teardown, keep retrying only for the drain budget so a
		// vanished peer cannot stall Close for the full dial budget.
		select {
		case <-l.n.done:
			if !shortened {
				shortened = true
				if d := time.Now().Add(l.n.cfg.DrainTimeout); d.Before(deadline) {
					deadline = d
				}
			}
		default:
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// acceptLoop accepts incoming link connections for one local listener.
func (n *Network) acceptLoop(ln net.Listener) {
	defer n.readWg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.connMu.Lock()
		n.conns[conn] = struct{}{}
		n.connMu.Unlock()
		if n.closed.Load() {
			conn.SetReadDeadline(time.Now().Add(n.cfg.DrainTimeout))
		}
		n.readWg.Add(1)
		go n.readLoop(conn)
	}
}

// readLoop decodes one incoming connection's frame stream into the
// destination inbox. EOF is the normal teardown path (the peer flushed and
// closed); errors before EOF are recorded.
//
// The loop reads through one reusable slab: each kernel read fills as much of
// the slab as the socket has buffered — typically many frames per syscall
// under load — and the decode loop then consumes frame after frame from the
// slab without touching the kernel again. The scratch decode copies every
// byte out, so consumed slab space is reusable immediately.
func (n *Network) readLoop(conn net.Conn) {
	defer n.readWg.Done()
	defer func() {
		n.connMu.Lock()
		delete(n.conns, conn)
		n.connMu.Unlock()
		conn.Close()
	}()
	buf := make([]byte, readSlab)
	start, end := 0, 0
	// fill ensures buf[start:end] holds at least need contiguous bytes,
	// compacting or (for oversized frames, already length-validated) growing
	// the slab first, then reading whatever the socket has — not just need.
	fill := func(need int) error {
		if end-start >= need {
			return nil
		}
		if need > len(buf) {
			next := make([]byte, need)
			copy(next, buf[start:end])
			end -= start
			start = 0
			buf = next
		} else if len(buf)-start < need {
			copy(buf, buf[start:end])
			end -= start
			start = 0
		}
		for end-start < need {
			k, err := conn.Read(buf[end:])
			end += k
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := fill(handshakeBytes); err != nil {
		return
	}
	hs := buf[start : start+handshakeBytes]
	if binary.LittleEndian.Uint32(hs[0:4]) != handshakeMagic {
		n.fail(fmt.Errorf("tcp: bad handshake magic %#x", binary.LittleEndian.Uint32(hs[0:4])))
		return
	}
	src := int(int32(binary.LittleEndian.Uint32(hs[4:8])))
	dst := int(int32(binary.LittleEndian.Uint32(hs[8:12])))
	start += handshakeBytes
	if src < 0 || src >= n.Nodes() || !n.Local(dst) {
		n.fail(fmt.Errorf("tcp: handshake for invalid link %d->%d", src, dst))
		return
	}
	inboxes := n.inboxes[dst]
	for {
		if err := fill(headerBytes); err != nil {
			return // EOF: peer closed; deadline: teardown drain expired
		}
		plen := int(binary.LittleEndian.Uint32(buf[start+1 : start+headerBytes]))
		if plen < 0 || plen > n.cfg.MaxMessage {
			// Validate before fill so a corrupt length prefix cannot make
			// the slab attempt a huge allocation.
			n.fail(fmt.Errorf("tcp: frame of %d bytes from node %d exceeds limit", plen, src))
			return
		}
		total := headerBytes + plen
		if err := fill(total); err != nil {
			return
		}
		sc := msg.GetScratch()
		m, _, err := sc.Decode(buf[start : start+total])
		start += total
		if err != nil {
			sc.Release()
			n.fail(fmt.Errorf("tcp: malformed frame from node %d: %w", src, err))
			return
		}
		// Demux on decode: this reader delivers the connection's frames
		// sequentially, so order is preserved per (connection, shard).
		shard := msg.ShardOf(m, n.cfg.Shards)
		inbox := inboxes[shard]
		env := transport.Envelope{Src: src, Dst: dst, Msg: m, Shard: shard, Bytes: headerBytes + plen, Scratch: sc}
		select {
		case inbox <- env:
		case <-n.done:
			// Teardown: deliver if there is room, drop otherwise
			// rather than stalling Close.
			select {
			case inbox <- env:
			default:
				sc.Release()
				n.dropped.Add(1)
			}
		}
	}
}

var _ transport.Network = (*Network)(nil)
