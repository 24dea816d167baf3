package shm

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync/atomic"
	"time"
	"unsafe"
)

// A ring is a lock-free single-producer single-consumer byte queue over a
// mmap-ed file shared by two processes. The layout is
//
//	[ 4 KiB control page | power-of-two data region ]
//
// with free-running 64-bit head (producer) and tail (consumer) cursors in the
// control page; an index is cursor & (size-1). Records are 8-byte aligned:
//
//	[u32 length][payload][pad to 8]
//
// A record never straddles the end of the data region: when the remaining
// bytes to the end cannot hold the record, the producer writes a wrap marker
// (length 0xFFFFFFFF) and continues at offset 0. Because records and the
// region size are multiples of 8, the remaining tail space is always 0 or
// ≥ 8 bytes, so the marker always fits.
//
// All cross-process synchronization is via sync/atomic on the shared mapping:
// the producer publishes a record with a store of head after the payload copy,
// the consumer observes it with a load of head before reading, and releases
// space with a store of tail after it is done with the bytes.
//
// Wakeups ride doorbell FIFOs next to the ring file — one per direction
// ("data available" toward the consumer, "space available" toward the
// producer). cwait/pwait in the control page record that the peer parked, so
// the steady-state ring write stays entirely syscall-free: a doorbell byte is
// written only when the peer is actually parked, and parking is a deadline
// read on the FIFO. A pipe read parks through the runtime's poller like any
// socket — the scheduler hands the CPU to other goroutines immediately —
// whereas parking in a raw futex/nanosleep syscall would pin the P for the
// whole sleep, starving co-scheduled workers on small hosts (GOMAXPROCS=1
// turns each such park into a multi-hundred-µs stall of the whole process).

const (
	ringMagic   = 0x4C53484D // "LSHM"
	ringVersion = 1

	// ringHeader is the control-page size; the data region starts here,
	// page-aligned, so cursor words and payload bytes never share a line.
	ringHeader = 4096

	offMagic    = 0   // u32: ringMagic, stored last during init
	offVersion  = 4   // u32
	offSize     = 8   // u64: data region size
	offSrc      = 16  // u32
	offDst      = 20  // u32
	offShard    = 24  // u32
	offHead     = 64  // u64: producer cursor (own cache line)
	offTail     = 128 // u64: consumer cursor (own cache line)
	offCWait    = 192 // u32: consumer parked
	offPWait    = 256 // u32: producer parked
	offClosed   = 320 // u32: producer flushed everything and detached
	offAttached = 384 // u32: a producer has opened this ring at least once

	wrapMarker = 0xFFFFFFFF

	// DefaultRingSize is the data-region size per directed (src, dst, shard)
	// ring when Config.RingSize is zero.
	DefaultRingSize = 1 << 20

	minRingSize = 1 << 12
)

// parkTimeout bounds one doorbell sleep so a missed wakeup (a doorbell byte
// consumed by an earlier spurious wake, a peer that died without ringing)
// degrades to a periodic re-check, not a hang.
const parkTimeout = 2 * time.Millisecond

// doorbellByte is the payload of a wakeup; its value is meaningless (parked
// peers drain and discard).
var doorbellByte = []byte{1}

func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// maxFrameFor is the largest frame a ring of the given data size accepts.
// Frames are capped at half the ring so that a wrap marker plus the record
// always fit in an empty ring: the blocking write cannot demand more free
// space than the ring has.
func maxFrameFor(size uint64) int { return int(size/2) - 12 }

// RingSizeFor returns the smallest valid RingSize whose frame cap admits a
// message of maxMessage encoded bytes.
func RingSizeFor(maxMessage int) int {
	size := uint64(minRingSize)
	for maxFrameFor(size) < maxMessage {
		size <<= 1
	}
	if size < DefaultRingSize {
		size = DefaultRingSize
	}
	return int(size)
}

type ring struct {
	mem  []byte // full mapping, ringHeader+size bytes
	data []byte // mem[ringHeader:]
	size uint64
	mask uint64
	path string
	// owned marks the consumer side, which created the files and unlinks them.
	owned bool
	// dbData is the "data available" doorbell (producer writes, consumer
	// parks reading); dbSpace the "space available" one (consumer writes,
	// producer parks reading). Both sides open both FIFOs O_RDWR so opens
	// never block and readers never see EOF.
	dbData  *os.File
	dbSpace *os.File
}

func (r *ring) word32(off int) *uint32 { return (*uint32)(unsafe.Pointer(&r.mem[off])) }
func (r *ring) word64(off int) *uint64 { return (*uint64)(unsafe.Pointer(&r.mem[off])) }

func (r *ring) head() *uint64     { return r.word64(offHead) }
func (r *ring) tail() *uint64     { return r.word64(offTail) }
func (r *ring) cwait() *uint32    { return r.word32(offCWait) }
func (r *ring) pwait() *uint32    { return r.word32(offPWait) }
func (r *ring) closed() *uint32   { return r.word32(offClosed) }
func (r *ring) attached() *uint32 { return r.word32(offAttached) }

func ringPath(dir string, src, dst, shard int) string {
	return fmt.Sprintf("%s/ring-%d-%d-%d", dir, src, dst, shard)
}

// Doorbell FIFO paths beside the ring file.
func dbDataPath(path string) string  { return path + ".dbd" }
func dbSpacePath(path string) string { return path + ".dbs" }

// openDoorbells opens both doorbell FIFOs of path. O_RDWR keeps the open
// from blocking on a missing peer and the FIFO from ever delivering EOF; the
// os package puts the descriptors in non-blocking mode and registers them
// with the runtime poller, which is the point of the design.
func (r *ring) openDoorbells() error {
	var err error
	if r.dbData, err = os.OpenFile(dbDataPath(r.path), os.O_RDWR, 0); err != nil {
		return err
	}
	if r.dbSpace, err = os.OpenFile(dbSpacePath(r.path), os.O_RDWR, 0); err != nil {
		r.dbData.Close()
		r.dbData = nil
		return err
	}
	return nil
}

// parkRead sleeps on a doorbell until a byte arrives or parkTimeout passes.
// Spurious returns are fine: callers re-check their condition. If the
// platform cannot poll FIFOs, degrade to a plain bounded sleep.
func parkRead(f *os.File) {
	if f == nil || f.SetReadDeadline(time.Now().Add(parkTimeout)) != nil {
		time.Sleep(parkTimeout)
		return
	}
	// Drain a small batch so stale doorbell bytes from earlier races cost
	// one spurious wake, not one each.
	var buf [16]byte
	f.Read(buf[:])
}

// ringBell writes one wakeup byte. The write is non-blocking (the descriptor
// is pollable) and the pipe can never fill: bytes are written only when the
// peer's park word is set, and parked peers drain.
func ringBell(f *os.File) {
	if f != nil {
		f.Write(doorbellByte)
	}
}

// createRing builds and maps the ring file for the (src, dst, shard) link.
// The consumer (dst side) creates rings: the file is initialized under a
// temporary name and renamed into place, so a producer that races the open
// never sees a half-initialized header.
func createRing(dir string, src, dst, shard int, size uint64) (*ring, error) {
	path := ringPath(dir, src, dst, shard)
	tmp := fmt.Sprintf("%s.tmp.%d", path, os.Getpid())
	os.Remove(path)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmp)
	total := ringHeader + int(size)
	if err := f.Truncate(int64(total)); err != nil {
		f.Close()
		return nil, err
	}
	mem, err := mapFile(f, total)
	f.Close() // the mapping outlives the descriptor
	if err != nil {
		return nil, err
	}
	r := &ring{mem: mem, data: mem[ringHeader:], size: size, mask: size - 1, path: path, owned: true}
	binary.LittleEndian.PutUint32(mem[offVersion:], ringVersion)
	binary.LittleEndian.PutUint64(mem[offSize:], size)
	binary.LittleEndian.PutUint32(mem[offSrc:], uint32(src))
	binary.LittleEndian.PutUint32(mem[offDst:], uint32(dst))
	binary.LittleEndian.PutUint32(mem[offShard:], uint32(shard))
	// The doorbells must exist before the ring is renamed into place: a
	// producer only looks for them once it has seen (and validated) the ring
	// file, so it always opens this generation's FIFOs.
	os.Remove(dbDataPath(path))
	os.Remove(dbSpacePath(path))
	err = mkfifo(dbDataPath(path))
	if err == nil {
		err = mkfifo(dbSpacePath(path))
	}
	if err == nil {
		err = r.openDoorbells()
	}
	if err != nil {
		r.close()
		return nil, err
	}
	// Publish the header: producers validate the magic after mapping.
	atomic.StoreUint32(r.word32(offMagic), ringMagic)
	if err := os.Rename(tmp, path); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// openRing maps a peer-created ring file, retrying until it appears or the
// deadline passes. cancel aborts the wait early (network shutdown).
func openRing(dir string, src, dst, shard int, size uint64, deadline time.Time, cancel <-chan struct{}) (*ring, error) {
	path := ringPath(dir, src, dst, shard)
	total := ringHeader + int(size)
	for {
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err == nil {
			st, serr := f.Stat()
			if serr == nil && st.Size() == int64(total) {
				mem, merr := mapFile(f, total)
				f.Close()
				if merr != nil {
					return nil, merr
				}
				r := &ring{mem: mem, data: mem[ringHeader:], size: size, mask: size - 1, path: path}
				if atomic.LoadUint32(r.word32(offMagic)) == ringMagic &&
					binary.LittleEndian.Uint32(mem[offVersion:]) == ringVersion &&
					binary.LittleEndian.Uint64(mem[offSize:]) == size {
					if err := r.openDoorbells(); err != nil {
						unmapFile(mem)
						return nil, err
					}
					atomic.StoreUint32(r.attached(), 1)
					return r, nil
				}
				// Not yet renamed-into-place by this peer generation, or a
				// size mismatch; unmap and retry until the deadline.
				unmapFile(mem)
			} else {
				f.Close()
			}
		} else if !os.IsNotExist(err) {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("shm: ring %s not available within deadline", path)
		}
		select {
		case <-cancel:
			return nil, fmt.Errorf("shm: open of ring %s canceled", path)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (r *ring) close() {
	if r.dbData != nil {
		r.dbData.Close()
	}
	if r.dbSpace != nil {
		r.dbSpace.Close()
	}
	unmapFile(r.mem)
	if r.owned {
		os.Remove(r.path)
		os.Remove(dbDataPath(r.path))
		os.Remove(dbSpacePath(r.path))
	}
}

// tryWrite appends one frame without blocking. It reports false when the
// ring currently lacks space. Producer-side only.
func (r *ring) tryWrite(frame []byte) bool {
	need := align8(4 + uint64(len(frame)))
	head := atomic.LoadUint64(r.head())
	tail := atomic.LoadUint64(r.tail())
	idx := head & r.mask
	rem := r.size - idx
	advance := need
	if rem < need {
		advance = rem + need
	}
	if r.size-(head-tail) < advance {
		return false
	}
	if rem < need {
		binary.LittleEndian.PutUint32(r.data[idx:], wrapMarker)
		idx = 0
	}
	binary.LittleEndian.PutUint32(r.data[idx:], uint32(len(frame)))
	copy(r.data[idx+4:], frame)
	// The head store publishes the record: it is the release edge the
	// consumer's head load synchronizes with.
	atomic.StoreUint64(r.head(), head+advance)
	if atomic.LoadUint32(r.cwait()) != 0 {
		atomic.StoreUint32(r.cwait(), 0)
		ringBell(r.dbData)
	}
	return true
}

// write blocks until the frame fits. deadline is re-evaluated every park so
// a teardown that starts mid-wait still bounds it; a non-zero deadline in
// the past makes write report false.
func (r *ring) write(frame []byte, deadline func() time.Time) bool {
	for {
		if r.tryWrite(frame) {
			return true
		}
		if d := deadline(); !d.IsZero() && time.Now().After(d) {
			return false
		}
		tail := atomic.LoadUint64(r.tail())
		atomic.StoreUint32(r.pwait(), 1)
		if atomic.LoadUint64(r.tail()) != tail {
			atomic.StoreUint32(r.pwait(), 0)
			continue
		}
		parkRead(r.dbSpace)
		atomic.StoreUint32(r.pwait(), 0)
	}
}

// peek returns the next frame as a view into the ring, or nil when the ring
// is empty. The view is valid until advance. Consumer-side only.
func (r *ring) peek() ([]byte, error) {
	for {
		head := atomic.LoadUint64(r.head())
		tail := atomic.LoadUint64(r.tail())
		if head == tail {
			return nil, nil
		}
		idx := tail & r.mask
		l := binary.LittleEndian.Uint32(r.data[idx:])
		if l == wrapMarker {
			r.advanceBy(r.size - idx)
			continue
		}
		if int(l) > maxFrameFor(r.size) || align8(4+uint64(l)) > r.size-idx {
			return nil, fmt.Errorf("shm: corrupt ring %s: %d-byte record at cursor %d", r.path, l, tail)
		}
		return r.data[idx+4 : idx+4+uint64(l)], nil
	}
}

// advance releases the record returned by the last peek.
func (r *ring) advance(frameLen int) { r.advanceBy(align8(4 + uint64(frameLen))) }

func (r *ring) advanceBy(n uint64) {
	atomic.StoreUint64(r.tail(), atomic.LoadUint64(r.tail())+n)
	if atomic.LoadUint32(r.pwait()) != 0 {
		atomic.StoreUint32(r.pwait(), 0)
		ringBell(r.dbSpace)
	}
}

// empty reports whether the ring has no pending records.
func (r *ring) empty() bool {
	return atomic.LoadUint64(r.head()) == atomic.LoadUint64(r.tail())
}

// waitData parks the consumer on the data doorbell until the ring is
// non-empty. Spurious returns are fine; the caller re-peeks.
func (r *ring) waitData() {
	atomic.StoreUint32(r.cwait(), 1)
	if !r.empty() {
		atomic.StoreUint32(r.cwait(), 0)
		return
	}
	parkRead(r.dbData)
	atomic.StoreUint32(r.cwait(), 0)
}

// wakeConsumer kicks a parked consumer (teardown path).
func (r *ring) wakeConsumer() {
	atomic.StoreUint32(r.cwait(), 0)
	ringBell(r.dbData)
}

func (r *ring) setClosed()         { atomic.StoreUint32(r.closed(), 1) }
func (r *ring) producerDone() bool { return atomic.LoadUint32(r.closed()) != 0 }
func (r *ring) everAttached() bool { return atomic.LoadUint32(r.attached()) != 0 }
func (r *ring) markAttached()      { atomic.StoreUint32(r.attached(), 1) }
