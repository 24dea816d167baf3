package msg

import (
	"bytes"
	"reflect"
	"testing"

	"lapse/internal/kv"
)

// TestAppendToMatchesEncode pins the wire format of the pooled encode path:
// appending into a reused buffer whose spare capacity still holds an earlier
// message's bytes must produce byte-identical output to a fresh encode for
// every message kind (including nil/empty slice shapes), and appending after
// a prefix must leave the prefix untouched.
func TestAppendToMatchesEncode(t *testing.T) {
	for _, m := range seedMessages() {
		want := AppendTo(nil, m)
		dirty := bytes.Repeat([]byte{0xA5}, len(want)+64)[:0]
		if got := AppendTo(dirty, m); !bytes.Equal(got, want) {
			t.Fatalf("AppendTo(%T) into a reused buffer = %x, fresh = %x", m, got, want)
		}
		prefix := []byte{1, 2, 3}
		both := AppendTo(append([]byte(nil), prefix...), m)
		if !bytes.Equal(both[:3], prefix) || !bytes.Equal(both[3:], want) {
			t.Fatalf("AppendTo with prefix corrupted output for %T", m)
		}
		if len(want) != Size(m) {
			t.Fatalf("Size(%T) = %d, encoded %d bytes", m, Size(m), len(want))
		}
	}
}

// TestScratchDecodeMatchesDecode pins the scratch decode path against the
// allocating one for every message kind.
func TestScratchDecodeMatchesDecode(t *testing.T) {
	s := GetScratch()
	defer s.Release()
	for _, m := range seedMessages() {
		enc := AppendTo(nil, m)
		want, wn, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(%T): %v", m, err)
		}
		got, gn, err := s.Decode(enc)
		if err != nil {
			t.Fatalf("Scratch.Decode(%T): %v", m, err)
		}
		if gn != wn || !reflect.DeepEqual(got, want) {
			t.Fatalf("Scratch.Decode(%T) = %+v (%d bytes), want %+v (%d bytes)", m, got, gn, want, wn)
		}
	}
}

// TestAppendToZeroAlloc is the regression gate for the pooled encode path:
// steady-state encoding of every message kind into a warmed pooled buffer
// must not allocate.
func TestAppendToZeroAlloc(t *testing.T) {
	msgs := seedMessages()
	bp := GetBuf()
	defer PutBuf(bp)
	// Warm the buffer to its steady-state capacity.
	for _, m := range msgs {
		*bp = AppendTo((*bp)[:0], m)
	}
	for _, m := range msgs {
		m := m
		if n := testing.AllocsPerRun(100, func() {
			*bp = AppendTo((*bp)[:0], m)
		}); n != 0 {
			t.Errorf("AppendTo(%T) allocates %.1f times per op, want 0", m, n)
		}
	}
}

// TestScratchDecodeZeroAlloc is the regression gate for the scratch decode
// path: steady-state decoding into a warmed scratch must not allocate.
func TestScratchDecodeZeroAlloc(t *testing.T) {
	s := GetScratch()
	defer s.Release()
	for _, m := range seedMessages() {
		enc := AppendTo(nil, m)
		// Warm the scratch arenas for this message's sizes.
		if _, _, err := s.Decode(enc); err != nil {
			t.Fatalf("Scratch.Decode(%T): %v", m, err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, _, err := s.Decode(enc); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Scratch.Decode(%T) allocates %.1f times per op, want 0", m, n)
		}
	}
}

// TestScratchReleasePoisons verifies the poison-on-release debug mode: after
// Release, a retained message's Keys/Vals read back as PoisonKey/PoisonVal,
// and a released encode buffer is overwritten too.
func TestScratchReleasePoisons(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)

	s := GetScratch()
	enc := AppendTo(nil, &Op{Type: OpPush, ID: 9, Keys: []kv.Key{1, 2}, Vals: []float32{3, 4}})
	mAny, _, err := s.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	m := mAny.(*Op)
	keys, vals := m.Keys, m.Vals // a retention bug keeps slice views like these
	s.Release()
	if keys[0] != PoisonKey || vals[0] != PoisonVal {
		t.Fatalf("retained slices not poisoned after Release: keys=%v vals=%v", keys, vals)
	}
	if m.Keys != nil || m.Vals != nil {
		t.Fatalf("released scratch struct keeps live slice headers: %+v", m)
	}

	bp := GetBuf()
	buf := AppendTo((*bp)[:0], &Barrier{Enter: true, Seq: 7, Worker: 1})
	*bp = buf
	PutBuf(bp)
	for i, b := range buf[:cap(buf)] {
		if b != poisonByte {
			t.Fatalf("released encode buffer byte %d = %#x, want %#x", i, b, poisonByte)
		}
	}
}
