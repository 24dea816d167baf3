// Package msg defines the wire messages exchanged between nodes of a
// parameter server and a compact binary codec for them.
//
// The real Lapse implementation uses ZeroMQ with protocol-buffer payloads;
// here the codec is the actual message path: every transport (the simulated
// network of internal/simnet as well as the TCP transport of
// internal/transport/tcp) encodes messages on Send and hands receivers a
// freshly decoded copy, so no pointer ever crosses a node boundary and the
// encoded length doubles as the on-the-wire size for the latency/bandwidth
// model.
//
// Wire format: each message is [kind:1][payloadLen:4][payload], little
// endian throughout. Nil and zero-length slices are indistinguishable on the
// wire (both encode a zero count) and canonically decode to nil. Decode
// never panics on malformed input — every field read is bounds-checked and
// the payload must be consumed exactly — making it safe to feed bytes
// straight off a socket (fuzzed by FuzzCodecRoundTrip).
//
// The steady-state message path is allocation-free: senders encode with
// AppendTo into pooled buffers (GetBuf/PutBuf) and receivers decode through
// pooled Scratch arenas (GetScratch/Scratch.Decode/Release); both are
// wire-identical to AppendTo(nil, m)/Decode. See DESIGN.md "Allocation-free message
// path" for the ownership protocol and the poison-on-release debug mode.
package msg

import (
	"encoding/binary"
	"fmt"
	"math"

	"lapse/internal/kv"
)

// Kind discriminates message types on the wire.
type Kind uint8

// Message kinds. The Op* kinds are client operations that may be forwarded
// between nodes; the Reloc* kinds implement the relocation protocol of
// Section 3.2; the Ssp* kinds implement the stale (Petuum-style) protocol;
// the Replica* kinds implement the hot-key replication sync cycle.
const (
	KindInvalid Kind = iota
	KindOp           // pull/push request (possibly forwarded)
	KindOpResp       // response to a pull/push
	KindLocalize
	KindRelocInstruct
	KindRelocTransfer
	KindSspClock
	KindSspSync
	KindBarrier
	KindBlock
	KindReplicaSync
	KindReplicaRefresh
	KindManage
	KindLeaseRevoke
)

func (k Kind) String() string {
	switch k {
	case KindOp:
		return "Op"
	case KindOpResp:
		return "OpResp"
	case KindLocalize:
		return "Localize"
	case KindRelocInstruct:
		return "RelocInstruct"
	case KindRelocTransfer:
		return "RelocTransfer"
	case KindSspClock:
		return "SspClock"
	case KindSspSync:
		return "SspSync"
	case KindBarrier:
		return "Barrier"
	case KindBlock:
		return "Block"
	case KindReplicaSync:
		return "ReplicaSync"
	case KindReplicaRefresh:
		return "ReplicaRefresh"
	case KindManage:
		return "Manage"
	case KindLeaseRevoke:
		return "LeaseRevoke"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// OpType distinguishes pulls from pushes inside an Op message.
type OpType uint8

// Operation types.
const (
	OpPull OpType = iota
	OpPush
)

func (t OpType) String() string {
	if t == OpPull {
		return "pull"
	}
	return "push"
}

// Op is a (possibly multi-key) pull or push request. Origin identifies the
// node whose worker issued the operation and ID the pending-operation slot at
// that node, so that the final owner can respond directly to the origin.
// Hops counts forwarding steps (for double-forward accounting and loop
// detection); ViaCache marks requests sent via a location cache entry, which
// the receiver uses for stale-cache handling.
type Op struct {
	Type     OpType
	ID       uint64
	Origin   int32
	Hops     uint8
	ViaCache bool
	// Lease marks a read-only pull whose origin wants a serving-cache lease
	// on the requested keys: the home grants one (OpResp.LeaseTTL) when the
	// keys are owned and not replicated. Ignored for pushes.
	Lease bool
	Keys  []kv.Key
	Vals  []float32 // push update terms (concatenated in Keys order); nil for pulls
}

// OpResp answers an Op. For pulls, Vals carries the requested values in Keys
// order. Responder is the node that held the keys; origins use it to update
// their location caches. LeaseTTL is nonzero when the responder granted a
// serving-cache lease on the response's keys: the origin may serve reads of
// those keys from its local cache for LeaseTTL microseconds (or until the
// home revokes the lease, whichever comes first).
type OpResp struct {
	Type      OpType
	ID        uint64
	Responder int32
	LeaseTTL  uint32 // lease duration in microseconds; 0 = no lease granted
	Keys      []kv.Key
	Vals      []float32 // nil for push acknowledgements
}

// Localize asks the home node of Keys to relocate them to Origin (message 1
// of the relocation protocol). ID identifies the pending localize at Origin.
type Localize struct {
	ID     uint64
	Origin int32
	Keys   []kv.Key
}

// RelocInstruct tells the current owner to stop processing, remove Keys from
// its store, and transfer them to Dest (message 2 of the protocol).
type RelocInstruct struct {
	ID   uint64 // pending-localize ID at Dest
	Dest int32
	Keys []kv.Key
}

// RelocTransfer hands the parameter values over to the new owner (message 3).
type RelocTransfer struct {
	ID   uint64 // pending-localize ID at the destination
	Keys []kv.Key
	Vals []float32
}

// SspClock reports that worker Worker advanced its clock to Clock. It is sent
// to every server after the worker flushed its buffered updates.
type SspClock struct {
	Worker int32
	Clock  int32
}

// SspSync carries replica refreshes in the stale PS: for client-based
// synchronization it answers an explicit fetch; for server-based
// synchronization (SSPPush) the server sends it eagerly after a global clock
// advance. Clock is the global clock the values reflect.
type SspSync struct {
	ID    uint64 // pending fetch ID at the destination; 0 for eager pushes
	Clock int32
	Keys  []kv.Key
	Vals  []float32
}

// Barrier implements a simple distributed barrier through the coordinator
// node (node 0): workers send Enter=true, the coordinator answers with
// Enter=false once all have arrived. Seq numbers consecutive barriers.
type Barrier struct {
	Enter  bool
	Seq    uint32
	Worker int32
}

// Block hands a raw float32 block from worker to worker. It is used by the
// low-level DSGD baseline's MPI-style ring communication (Section 4.4), not
// by any parameter-server protocol: ID names the column-factor block and
// Worker the global index of the receiving worker thread.
type Block struct {
	ID     int32
	Worker int32
	Vals   []float32
}

// ReplicaSync carries the cumulative update deltas node Origin accumulated
// for replicated keys homed at the destination (phase 1 of the hot-key
// replication sync cycle). Vals holds the deltas concatenated in Keys order.
// Seq numbers Origin's sync rounds; the home acknowledges the highest
// applied Seq in ReplicaRefresh.Ack so Origin can retire its in-flight
// deltas.
type ReplicaSync struct {
	Origin int32
	Seq    uint32
	Keys   []kv.Key
	Vals   []float32
}

// ReplicaRefresh fans the merged authoritative values of replicated keys
// from their home node (Origin) back out to one replica node (phase 2 of
// the sync cycle). Ack is the highest ReplicaSync.Seq received from the
// destination whose deltas are reflected in Vals.
type ReplicaRefresh struct {
	Origin int32
	Ack    uint32
	Keys   []kv.Key
	Vals   []float32
}

// ManageKind discriminates the adaptive-management control operations carried
// by a Manage message (see internal/core's adaptive controller).
type ManageKind uint8

// Manage operations.
const (
	// ManageReport carries one node's tracker statistics for keys homed at
	// the destination: Keys with their estimated access counts in Vals,
	// stamped with the reporting node's controller Epoch.
	ManageReport ManageKind = iota
	// ManageReplicate announces that Keys (with current values Vals) are now
	// managed by replication; receivers install local replicas.
	ManageReplicate
	// ManageUnreplicate tells replicas to stop replicating Keys and return
	// their residual deltas to the home node.
	ManageUnreplicate
	// ManageDemoteAck answers an Unreplicate for one key: the replica's
	// unsynced delta segments (Vals, one value-length segment per entry of
	// Seqs, where Seqs holds each segment's sync round — 0 for the pending,
	// never-sent segment).
	ManageDemoteAck
	// ManageLocalize asks the destination to relocate Keys to itself through
	// the ordinary Localize protocol: the home's controller decided the
	// destination dominates the keys' accesses, but only the destination can
	// initiate a relocation toward itself (it must queue the keys before the
	// transfer is underway).
	ManageLocalize
	// ManageSweep is a node-local tick a node sends to its own shards: the
	// classifier advances its epoch without ingesting a report, so replicated
	// keys whose home stopped receiving reports entirely still go cold and
	// get demoted. Keys carries a single shard-selector key (see the adaptive
	// controller); Epoch is the controller tick.
	ManageSweep
)

func (k ManageKind) String() string {
	switch k {
	case ManageReport:
		return "report"
	case ManageReplicate:
		return "replicate"
	case ManageUnreplicate:
		return "unreplicate"
	case ManageDemoteAck:
		return "demote-ack"
	case ManageLocalize:
		return "localize-hint"
	case ManageSweep:
		return "sweep"
	default:
		return fmt.Sprintf("ManageKind(%d)", uint8(k))
	}
}

// Manage is the adaptive-management control message: tracker reports flowing
// to home nodes and the per-key replication enter/exit protocol driven by the
// online controller. All operations are key-addressed — every key in one
// message belongs to the same server shard — so transitions stay FIFO with
// the operations of the keys they manage on each (link, shard) stream. Origin
// is the sending node. Epoch is the controller tick of a report (unused
// otherwise); Seqs is used only by demote acknowledgements.
type Manage struct {
	Kind   ManageKind
	Origin int32
	Epoch  uint32
	Keys   []kv.Key
	Vals   []float32
	Seqs   []uint32
}

// LeaseRevoke tells a lease holder to drop its serving-cache entries for
// Keys immediately: another node pushed to (or relocated) a key the holder
// had leased, so the cached values may be stale. Origin is the revoking home
// node. LeaseRevoke is key-addressed (routed by first key): a revocation
// must stay FIFO, per (link, shard), with the OpResp grant it chases, so a
// stale grant can never be installed after its revocation was processed.
// Senders emit one message per key to keep revocations shard-pure.
type LeaseRevoke struct {
	Origin int32
	Keys   []kv.Key
}

const (
	headerBytes = 1 + 4 // kind + payload length prefix written by AppendTo
	keyBytes    = 8
	valBytes    = 4
	seqBytes    = 4
)

// Size returns the encoded size in bytes of m. It is used by the simulated
// network's bandwidth model and matches the output length of AppendTo.
func Size(m any) int {
	switch t := m.(type) {
	case *Op:
		return headerBytes + 1 + 8 + 4 + 1 + 1 + 1 + 4 + 4 + len(t.Keys)*keyBytes + len(t.Vals)*valBytes
	case *OpResp:
		return headerBytes + 1 + 8 + 4 + 4 + 4 + 4 + len(t.Keys)*keyBytes + len(t.Vals)*valBytes
	case *Localize:
		return headerBytes + 8 + 4 + 4 + len(t.Keys)*keyBytes
	case *RelocInstruct:
		return headerBytes + 8 + 4 + 4 + len(t.Keys)*keyBytes
	case *RelocTransfer:
		return headerBytes + 8 + 4 + 4 + len(t.Keys)*keyBytes + len(t.Vals)*valBytes
	case *SspClock:
		return headerBytes + 4 + 4
	case *SspSync:
		return headerBytes + 8 + 4 + 4 + 4 + len(t.Keys)*keyBytes + len(t.Vals)*valBytes
	case *Barrier:
		return headerBytes + 1 + 4 + 4
	case *Block:
		return headerBytes + 4 + 4 + 4 + len(t.Vals)*valBytes
	case *ReplicaSync:
		return headerBytes + 4 + 4 + 4 + 4 + len(t.Keys)*keyBytes + len(t.Vals)*valBytes
	case *ReplicaRefresh:
		return headerBytes + 4 + 4 + 4 + 4 + len(t.Keys)*keyBytes + len(t.Vals)*valBytes
	case *Manage:
		return headerBytes + 1 + 4 + 4 + 4 + 4 + 4 + len(t.Keys)*keyBytes + len(t.Vals)*valBytes + len(t.Seqs)*seqBytes
	case *LeaseRevoke:
		return headerBytes + 4 + 4 + len(t.Keys)*keyBytes
	default:
		panic(fmt.Sprintf("msg: Size on unknown message type %T", m))
	}
}

// AppendTo appends the encoding of m to buf and returns the extended slice.
// It computes Size(m) exactly once, grows buf by that many bytes up front,
// and then writes every field into the reserved region with bulk
// little-endian stores — the steady-state encode path allocates nothing when
// buf has capacity (see GetBuf/PutBuf for the pooled-buffer protocol).
func AppendTo(buf []byte, m any) []byte {
	sz := Size(m)
	base := len(buf)
	buf = kv.Grow(buf, sz)
	w := writer{b: buf, off: base}
	switch t := m.(type) {
	case *Op:
		w.header(KindOp, sz)
		w.u8(byte(t.Type))
		w.u64(t.ID)
		w.u32(uint32(t.Origin))
		w.u8(t.Hops)
		w.u8(boolByte(t.ViaCache))
		w.u8(boolByte(t.Lease))
		w.keys(t.Keys)
		w.vals(t.Vals)
	case *OpResp:
		w.header(KindOpResp, sz)
		w.u8(byte(t.Type))
		w.u64(t.ID)
		w.u32(uint32(t.Responder))
		w.u32(t.LeaseTTL)
		w.keys(t.Keys)
		w.vals(t.Vals)
	case *Localize:
		w.header(KindLocalize, sz)
		w.u64(t.ID)
		w.u32(uint32(t.Origin))
		w.keys(t.Keys)
	case *RelocInstruct:
		w.header(KindRelocInstruct, sz)
		w.u64(t.ID)
		w.u32(uint32(t.Dest))
		w.keys(t.Keys)
	case *RelocTransfer:
		w.header(KindRelocTransfer, sz)
		w.u64(t.ID)
		w.keys(t.Keys)
		w.vals(t.Vals)
	case *SspClock:
		w.header(KindSspClock, sz)
		w.u32(uint32(t.Worker))
		w.u32(uint32(t.Clock))
	case *SspSync:
		w.header(KindSspSync, sz)
		w.u64(t.ID)
		w.u32(uint32(t.Clock))
		w.keys(t.Keys)
		w.vals(t.Vals)
	case *Barrier:
		w.header(KindBarrier, sz)
		w.u8(boolByte(t.Enter))
		w.u32(t.Seq)
		w.u32(uint32(t.Worker))
	case *Block:
		w.header(KindBlock, sz)
		w.u32(uint32(t.ID))
		w.u32(uint32(t.Worker))
		w.vals(t.Vals)
	case *ReplicaSync:
		w.header(KindReplicaSync, sz)
		w.u32(uint32(t.Origin))
		w.u32(t.Seq)
		w.keys(t.Keys)
		w.vals(t.Vals)
	case *ReplicaRefresh:
		w.header(KindReplicaRefresh, sz)
		w.u32(uint32(t.Origin))
		w.u32(t.Ack)
		w.keys(t.Keys)
		w.vals(t.Vals)
	case *Manage:
		w.header(KindManage, sz)
		w.u8(byte(t.Kind))
		w.u32(uint32(t.Origin))
		w.u32(t.Epoch)
		w.keys(t.Keys)
		w.vals(t.Vals)
		w.seqs(t.Seqs)
	case *LeaseRevoke:
		w.header(KindLeaseRevoke, sz)
		w.u32(uint32(t.Origin))
		w.keys(t.Keys)
	default:
		panic(fmt.Sprintf("msg: AppendTo on unknown message type %T", m))
	}
	if w.off != base+sz {
		panic(fmt.Sprintf("msg: AppendTo wrote %d bytes for %T, Size says %d", w.off-base, m, sz))
	}
	return buf
}

// writer is a cursor over a pre-sized encode buffer. Unlike append-based
// encoding it never re-checks capacity per field, and the key/value loops
// store into one bounds-hoisted sub-slice.
type writer struct {
	b   []byte
	off int
}

func (w *writer) header(k Kind, sz int) {
	w.u8(byte(k))
	w.u32(uint32(sz - headerBytes))
}

func (w *writer) u8(v byte) {
	w.b[w.off] = v
	w.off++
}

func (w *writer) u32(v uint32) {
	binary.LittleEndian.PutUint32(w.b[w.off:], v)
	w.off += 4
}

func (w *writer) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.b[w.off:], v)
	w.off += 8
}

func (w *writer) keys(keys []kv.Key) {
	w.u32(uint32(len(keys)))
	b := w.b[w.off : w.off+len(keys)*keyBytes]
	for i, k := range keys {
		binary.LittleEndian.PutUint64(b[i*keyBytes:], uint64(k))
	}
	w.off += len(keys) * keyBytes
}

func (w *writer) vals(vals []float32) {
	w.u32(uint32(len(vals)))
	b := w.b[w.off : w.off+len(vals)*valBytes]
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[i*valBytes:], math.Float32bits(v))
	}
	w.off += len(vals) * valBytes
}

func (w *writer) seqs(seqs []uint32) {
	w.u32(uint32(len(seqs)))
	b := w.b[w.off : w.off+len(seqs)*seqBytes]
	for i, v := range seqs {
		binary.LittleEndian.PutUint32(b[i*seqBytes:], v)
	}
	w.off += len(seqs) * seqBytes
}

// Decode parses one encoded message and returns it together with the number
// of bytes consumed. Every field read is bounds-checked and the payload must
// be consumed exactly, so Decode never panics and malformed input — from a
// socket or the fuzzer — yields an error.
func Decode(buf []byte) (any, int, error) { return decodeMsg(buf, nil) }

// decodeMsg decodes one message. With s == nil every decoded struct and
// slice is freshly allocated (the Decode contract); with a Scratch the
// message struct and its Keys/Vals are backed by the scratch's reusable
// arena (the Scratch.Decode contract).
func decodeMsg(buf []byte, s *Scratch) (any, int, error) {
	if len(buf) < headerBytes {
		return nil, 0, fmt.Errorf("msg: short buffer (%d bytes)", len(buf))
	}
	kind := Kind(buf[0])
	plen := int(binary.LittleEndian.Uint32(buf[1:5]))
	if plen < 0 || len(buf)-headerBytes < plen {
		return nil, 0, fmt.Errorf("msg: truncated %v payload: have %d, want %d", kind, len(buf)-headerBytes, plen)
	}
	d := &decoder{p: buf[headerBytes : headerBytes+plen], s: s}
	total := headerBytes + plen
	var m any
	switch kind {
	case KindOp:
		var t *Op
		if s != nil {
			t = &s.op
		} else {
			t = new(Op)
		}
		*t = Op{Type: OpType(d.u8()), ID: d.u64(), Origin: int32(d.u32()),
			Hops: d.u8(), ViaCache: d.bool(), Lease: d.bool(), Keys: d.keys(), Vals: d.vals()}
		m = t
	case KindOpResp:
		var t *OpResp
		if s != nil {
			t = &s.opResp
		} else {
			t = new(OpResp)
		}
		*t = OpResp{Type: OpType(d.u8()), ID: d.u64(), Responder: int32(d.u32()),
			LeaseTTL: d.u32(), Keys: d.keys(), Vals: d.vals()}
		m = t
	case KindLocalize:
		var t *Localize
		if s != nil {
			t = &s.localize
		} else {
			t = new(Localize)
		}
		*t = Localize{ID: d.u64(), Origin: int32(d.u32()), Keys: d.keys()}
		m = t
	case KindRelocInstruct:
		var t *RelocInstruct
		if s != nil {
			t = &s.instruct
		} else {
			t = new(RelocInstruct)
		}
		*t = RelocInstruct{ID: d.u64(), Dest: int32(d.u32()), Keys: d.keys()}
		m = t
	case KindRelocTransfer:
		var t *RelocTransfer
		if s != nil {
			t = &s.transfer
		} else {
			t = new(RelocTransfer)
		}
		*t = RelocTransfer{ID: d.u64(), Keys: d.keys(), Vals: d.vals()}
		m = t
	case KindSspClock:
		var t *SspClock
		if s != nil {
			t = &s.sspClock
		} else {
			t = new(SspClock)
		}
		*t = SspClock{Worker: int32(d.u32()), Clock: int32(d.u32())}
		m = t
	case KindSspSync:
		var t *SspSync
		if s != nil {
			t = &s.sspSync
		} else {
			t = new(SspSync)
		}
		*t = SspSync{ID: d.u64(), Clock: int32(d.u32()), Keys: d.keys(), Vals: d.vals()}
		m = t
	case KindBarrier:
		var t *Barrier
		if s != nil {
			t = &s.barrier
		} else {
			t = new(Barrier)
		}
		*t = Barrier{Enter: d.bool(), Seq: d.u32(), Worker: int32(d.u32())}
		m = t
	case KindBlock:
		var t *Block
		if s != nil {
			t = &s.block
		} else {
			t = new(Block)
		}
		*t = Block{ID: int32(d.u32()), Worker: int32(d.u32()), Vals: d.vals()}
		m = t
	case KindReplicaSync:
		var t *ReplicaSync
		if s != nil {
			t = &s.repSync
		} else {
			t = new(ReplicaSync)
		}
		*t = ReplicaSync{Origin: int32(d.u32()), Seq: d.u32(), Keys: d.keys(), Vals: d.vals()}
		m = t
	case KindReplicaRefresh:
		var t *ReplicaRefresh
		if s != nil {
			t = &s.repRefresh
		} else {
			t = new(ReplicaRefresh)
		}
		*t = ReplicaRefresh{Origin: int32(d.u32()), Ack: d.u32(), Keys: d.keys(), Vals: d.vals()}
		m = t
	case KindManage:
		var t *Manage
		if s != nil {
			t = &s.manage
		} else {
			t = new(Manage)
		}
		*t = Manage{Kind: ManageKind(d.u8()), Origin: int32(d.u32()), Epoch: d.u32(),
			Keys: d.keys(), Vals: d.vals(), Seqs: d.seqs()}
		m = t
	case KindLeaseRevoke:
		var t *LeaseRevoke
		if s != nil {
			t = &s.leaseRevoke
		} else {
			t = new(LeaseRevoke)
		}
		*t = LeaseRevoke{Origin: int32(d.u32()), Keys: d.keys()}
		m = t
	default:
		return nil, 0, fmt.Errorf("msg: unknown message kind %d", kind)
	}
	if d.err != nil {
		return nil, 0, fmt.Errorf("msg: decoding %v: %w", kind, d.err)
	}
	if len(d.p) != 0 {
		return nil, 0, fmt.Errorf("msg: %d trailing payload bytes in %v", len(d.p), kind)
	}
	return m, total, nil
}

// decoder is a bounds-checked cursor over a message payload. The first
// failed read latches err and all subsequent reads return zero values, so
// decode expressions can be written straight-line. With a Scratch attached,
// keys and vals decode into the scratch arena instead of fresh slices.
type decoder struct {
	p   []byte
	err error
	s   *Scratch
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("truncated %s (%d bytes left)", what, len(d.p))
	}
}

func (d *decoder) u8() byte {
	if d.err != nil || len(d.p) < 1 {
		d.fail("byte")
		return 0
	}
	v := d.p[0]
	d.p = d.p[1:]
	return v
}

func (d *decoder) bool() bool { return d.u8() != 0 }

func (d *decoder) u32() uint32 {
	if d.err != nil || len(d.p) < 4 {
		d.fail("uint32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.p)
	d.p = d.p[4:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.p) < 8 {
		d.fail("uint64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.p)
	d.p = d.p[8:]
	return v
}

// keys reads a count-prefixed key list; a zero count decodes to nil. The
// count is validated against the remaining payload before any allocation
// (overflow-safe on 32-bit ints). With a scratch attached, the list is
// decoded into the scratch's reusable key arena.
func (d *decoder) keys() []kv.Key {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.p)/keyBytes {
		d.fail("keys")
		return nil
	}
	if n == 0 {
		return nil
	}
	var keys []kv.Key
	if d.s != nil {
		if cap(d.s.keys) < n {
			d.s.keys = make([]kv.Key, n)
		}
		keys = d.s.keys[:n]
	} else {
		keys = make([]kv.Key, n)
	}
	b := d.p[:n*keyBytes]
	for i := range keys {
		keys[i] = kv.Key(binary.LittleEndian.Uint64(b[i*keyBytes:]))
	}
	d.p = d.p[n*keyBytes:]
	return keys
}

// vals reads a count-prefixed float32 list; a zero count decodes to nil.
// Like keys, the count is validated overflow-safely before allocating, and a
// scratch's value arena is reused when present.
func (d *decoder) vals() []float32 {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.p)/valBytes {
		d.fail("values")
		return nil
	}
	if n == 0 {
		return nil
	}
	var vals []float32
	if d.s != nil {
		if cap(d.s.vals) < n {
			d.s.vals = make([]float32, n)
		}
		vals = d.s.vals[:n]
	} else {
		vals = make([]float32, n)
	}
	b := d.p[:n*valBytes]
	for i := range vals {
		vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*valBytes:]))
	}
	d.p = d.p[n*valBytes:]
	return vals
}

// seqs reads a count-prefixed uint32 list; a zero count decodes to nil. Like
// keys and vals, the count is validated overflow-safely before allocating,
// and a scratch's seq arena is reused when present.
func (d *decoder) seqs() []uint32 {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.p)/seqBytes {
		d.fail("seqs")
		return nil
	}
	if n == 0 {
		return nil
	}
	var seqs []uint32
	if d.s != nil {
		if cap(d.s.seqs) < n {
			d.s.seqs = make([]uint32, n)
		}
		seqs = d.s.seqs[:n]
	} else {
		seqs = make([]uint32, n)
	}
	b := d.p[:n*seqBytes]
	for i := range seqs {
		seqs[i] = binary.LittleEndian.Uint32(b[i*seqBytes:])
	}
	d.p = d.p[n*seqBytes:]
	return seqs
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
