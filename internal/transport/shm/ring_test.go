package shm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

func testRing(t *testing.T, size uint64) *ring {
	t.Helper()
	r, err := createRing(t.TempDir(), 0, 1, 0, size)
	if err != nil {
		t.Fatalf("createRing: %v", err)
	}
	t.Cleanup(r.close)
	return r
}

func noDeadline() time.Time { return time.Time{} }

// TestRingWrapFIFO pushes frames of varying sizes through a small ring so
// records wrap the data region many times, and checks content and order.
func TestRingWrapFIFO(t *testing.T) {
	r := testRing(t, minRingSize)
	var pending [][]byte
	seq := 0
	pop := func() {
		frame, err := r.peek()
		if err != nil {
			t.Fatalf("peek: %v", err)
		}
		if frame == nil {
			t.Fatalf("ring empty, want %d pending frames", len(pending))
		}
		if !bytes.Equal(frame, pending[0]) {
			t.Fatalf("frame %d mismatch: got %d bytes %q..., want %d bytes", seq, len(frame), frame[:min(8, len(frame))], len(pending[0]))
		}
		r.advance(len(frame))
		pending = pending[1:]
	}
	for i := 0; i < 2000; i++ {
		// Sizes sweep 1..~600 bytes, repeatedly crossing the 4 KiB ring end
		// at varying offsets (including the wrap-marker edge cases).
		payload := bytes.Repeat([]byte{byte(i)}, 1+(i*7)%600)
		payload = append(payload, []byte(fmt.Sprint(i))...)
		for !r.tryWrite(payload) {
			pop()
		}
		pending = append(pending, payload)
		seq++
	}
	for len(pending) > 0 {
		pop()
	}
	if !r.empty() {
		t.Fatal("ring not empty after draining")
	}
}

// TestRingConcurrentProducerConsumer hammers one ring from a producer
// goroutine while the consumer verifies strict FIFO content, exercising the
// park/wake protocol in both directions (full ring parks the producer, empty
// ring parks the consumer).
func TestRingConcurrentProducerConsumer(t *testing.T) {
	r := testRing(t, minRingSize)
	const frames = 50000
	errc := make(chan error, 1)
	go func() {
		buf := make([]byte, 0, 512)
		for i := 0; i < frames; i++ {
			buf = buf[:0]
			buf = append(buf, byte(i), byte(i>>8), byte(i>>16), byte(i>>24))
			buf = append(buf, bytes.Repeat([]byte{byte(i)}, (i*13)%500)...)
			if !r.write(buf, noDeadline) {
				errc <- fmt.Errorf("write %d failed", i)
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < frames; i++ {
		var frame []byte
		for {
			var err error
			frame, err = r.peek()
			if err != nil {
				t.Fatalf("peek: %v", err)
			}
			if frame != nil {
				break
			}
			r.waitData()
		}
		got := int(frame[0]) | int(frame[1])<<8 | int(frame[2])<<16 | int(frame[3])<<24
		if got != i {
			t.Fatalf("frame %d carries sequence %d", i, got)
		}
		if want := 4 + (i*13)%500; len(frame) != want {
			t.Fatalf("frame %d has %d bytes, want %d", i, len(frame), want)
		}
		for _, b := range frame[4:] {
			if b != byte(i) {
				t.Fatalf("frame %d payload corrupted", i)
			}
		}
		r.advance(len(frame))
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// doorbellBytes drains f and returns how many wakeup bytes were pending. A
// pending byte is readable at once, so the short deadline only bounds the
// empty case.
func doorbellBytes(t *testing.T, f *os.File) int {
	t.Helper()
	total := 0
	for {
		if err := f.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
			t.Fatalf("SetReadDeadline: %v", err)
		}
		var buf [16]byte
		n, err := f.Read(buf[:])
		total += n
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return total
		}
		if err != nil {
			t.Fatalf("doorbell read: %v", err)
		}
	}
}

// TestRingDoorbellHandshake checks both halves of the park/wake handshake
// without a second goroutine: a write into a ring whose consumer announced
// it parked (cwait) must clear the flag and ring the data doorbell exactly
// once, and releasing space while the producer is parked (pwait) must do the
// same on the space doorbell. Neither side rings a peer that is not parked.
func TestRingDoorbellHandshake(t *testing.T) {
	r := testRing(t, minRingSize)
	frame := []byte("frame")

	if !r.tryWrite(frame) {
		t.Fatal("tryWrite into an empty ring failed")
	}
	if n := doorbellBytes(t, r.dbData); n != 0 {
		t.Fatalf("write to a running consumer rang the data doorbell %d times", n)
	}
	atomic.StoreUint32(r.cwait(), 1)
	if !r.tryWrite(frame) {
		t.Fatal("tryWrite failed")
	}
	if atomic.LoadUint32(r.cwait()) != 0 {
		t.Fatal("tryWrite left the consumer's park flag set")
	}
	if n := doorbellBytes(t, r.dbData); n != 1 {
		t.Fatalf("data doorbell holds %d bytes after waking a parked consumer, want 1", n)
	}

	r.advance(len(frame))
	if n := doorbellBytes(t, r.dbSpace); n != 0 {
		t.Fatalf("advance for a running producer rang the space doorbell %d times", n)
	}
	atomic.StoreUint32(r.pwait(), 1)
	r.advance(len(frame))
	if atomic.LoadUint32(r.pwait()) != 0 {
		t.Fatal("advance left the producer's park flag set")
	}
	if n := doorbellBytes(t, r.dbSpace); n != 1 {
		t.Fatalf("space doorbell holds %d bytes after waking a parked producer, want 1", n)
	}
	if !r.empty() {
		t.Fatal("ring not empty after consuming both frames")
	}
}

// TestRingWriteDeadline verifies a blocked producer gives up once its
// deadline — re-evaluated mid-wait, as teardown sets it — passes.
func TestRingWriteDeadline(t *testing.T) {
	r := testRing(t, minRingSize)
	big := make([]byte, maxFrameFor(minRingSize))
	for r.tryWrite(big) {
	}
	start := time.Now()
	deadline := func() time.Time { return start.Add(30 * time.Millisecond) }
	if r.write(big, deadline) {
		t.Fatal("write into a full ring with an expired deadline succeeded")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("deadline write blocked %v", time.Since(start))
	}
}

// TestRingSizeFor checks the frame-cap inversion used for MaxMessage.
func TestRingSizeFor(t *testing.T) {
	for _, m := range []int{1, 1 << 10, 1 << 20, 3<<20 + 17, 64 << 20} {
		size := RingSizeFor(m)
		if size&(size-1) != 0 {
			t.Fatalf("RingSizeFor(%d) = %d, not a power of two", m, size)
		}
		if maxFrameFor(uint64(size)) < m {
			t.Fatalf("RingSizeFor(%d) = %d admits only %d-byte frames", m, size, maxFrameFor(uint64(size)))
		}
	}
}
