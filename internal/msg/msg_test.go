package msg

import (
	"reflect"
	"testing"
	"testing/quick"

	"lapse/internal/kv"
)

func roundTrip(t *testing.T, m any) any {
	t.Helper()
	enc := AppendTo(nil, m)
	if len(enc) != Size(m) {
		t.Fatalf("encoded length %d != Size %d for %T", len(enc), Size(m), m)
	}
	dec, n, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode(%T): %v", m, err)
	}
	if n != len(enc) {
		t.Fatalf("Decode consumed %d of %d bytes", n, len(enc))
	}
	return dec
}

func TestRoundTripAllKinds(t *testing.T) {
	msgs := []any{
		&Op{Type: OpPull, ID: 42, Origin: 3, Hops: 2, ViaCache: true,
			Keys: []kv.Key{1, 99, 1 << 40}},
		&Op{Type: OpPush, ID: 7, Origin: 0,
			Keys: []kv.Key{5}, Vals: []float32{1.5, -2.25, 3}},
		&OpResp{Type: OpPull, ID: 42, Responder: 5,
			Keys: []kv.Key{1, 99}, Vals: []float32{0.5, 0.25}},
		&OpResp{Type: OpPush, ID: 9, Responder: 1, Keys: []kv.Key{5}},
		&Localize{ID: 11, Origin: 2, Keys: []kv.Key{8, 9, 10}},
		&RelocInstruct{ID: 11, Dest: 2, Keys: []kv.Key{8, 9}},
		&RelocTransfer{ID: 11, Keys: []kv.Key{8}, Vals: []float32{1, 2, 3, 4}},
		&SspClock{Worker: 6, Clock: 13},
		&SspSync{ID: 3, Clock: 12, Keys: []kv.Key{4}, Vals: []float32{9}},
		&Barrier{Enter: true, Seq: 4, Worker: 17},
		&Barrier{Enter: false, Seq: 5, Worker: -1},
		&Block{ID: 3, Worker: 6, Vals: []float32{1, -2, 0.5}},
		&Block{ID: 0, Worker: 0},
		&ReplicaSync{Origin: 1, Seq: 5, Keys: []kv.Key{2, 7}, Vals: []float32{0.5, -3}},
		&ReplicaSync{Origin: 0, Seq: 0},
		&ReplicaRefresh{Origin: 3, Ack: 12, Keys: []kv.Key{9}, Vals: []float32{1, 2}},
		&ReplicaRefresh{Origin: 0, Ack: 0},
		&Manage{Kind: ManageReport, Origin: 1, Epoch: 7, Keys: []kv.Key{3, 11}, Vals: []float32{64, 16}},
		&Manage{Kind: ManageReplicate, Origin: 0, Keys: []kv.Key{5}, Vals: []float32{1.5, -2}},
		&Manage{Kind: ManageUnreplicate, Origin: 2, Keys: []kv.Key{5}},
		&Manage{Kind: ManageDemoteAck, Origin: 3, Epoch: 9, Keys: []kv.Key{5},
			Vals: []float32{0.5, 0.5, 1, 1}, Seqs: []uint32{0, 9}},
		&Manage{Kind: ManageDemoteAck, Origin: 1, Keys: []kv.Key{4}},
	}
	for _, m := range msgs {
		dec := roundTrip(t, m)
		if !reflect.DeepEqual(normalize(m), normalize(dec)) {
			t.Errorf("round trip mismatch:\n got %#v\nwant %#v", dec, m)
		}
	}
}

// normalize maps nil and empty slices to nil so DeepEqual compares values.
func normalize(m any) any {
	switch t := m.(type) {
	case *Op:
		c := *t
		c.Keys = nilIfEmptyKeys(c.Keys)
		c.Vals = nilIfEmptyVals(c.Vals)
		return &c
	case *OpResp:
		c := *t
		c.Keys = nilIfEmptyKeys(c.Keys)
		c.Vals = nilIfEmptyVals(c.Vals)
		return &c
	case *Localize:
		c := *t
		c.Keys = nilIfEmptyKeys(c.Keys)
		return &c
	case *RelocInstruct:
		c := *t
		c.Keys = nilIfEmptyKeys(c.Keys)
		return &c
	case *RelocTransfer:
		c := *t
		c.Keys = nilIfEmptyKeys(c.Keys)
		c.Vals = nilIfEmptyVals(c.Vals)
		return &c
	case *SspSync:
		c := *t
		c.Keys = nilIfEmptyKeys(c.Keys)
		c.Vals = nilIfEmptyVals(c.Vals)
		return &c
	case *Block:
		c := *t
		c.Vals = nilIfEmptyVals(c.Vals)
		return &c
	case *ReplicaSync:
		c := *t
		c.Keys = nilIfEmptyKeys(c.Keys)
		c.Vals = nilIfEmptyVals(c.Vals)
		return &c
	case *ReplicaRefresh:
		c := *t
		c.Keys = nilIfEmptyKeys(c.Keys)
		c.Vals = nilIfEmptyVals(c.Vals)
		return &c
	case *Manage:
		c := *t
		c.Keys = nilIfEmptyKeys(c.Keys)
		c.Vals = nilIfEmptyVals(c.Vals)
		if len(c.Seqs) == 0 {
			c.Seqs = nil
		}
		return &c
	default:
		return m
	}
}

func nilIfEmptyKeys(k []kv.Key) []kv.Key {
	if len(k) == 0 {
		return nil
	}
	return k
}

func nilIfEmptyVals(v []float32) []float32 {
	if len(v) == 0 {
		return nil
	}
	return v
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Error("Decode(nil) succeeded")
	}
	if _, _, err := Decode([]byte{99, 0, 0, 0, 0}); err == nil {
		t.Error("Decode(unknown kind) succeeded")
	}
	enc := AppendTo(nil, &Localize{ID: 1, Origin: 0, Keys: []kv.Key{1, 2}})
	if _, _, err := Decode(enc[:len(enc)-3]); err == nil {
		t.Error("Decode(truncated) succeeded")
	}
}

func TestSizeAccountsForPayload(t *testing.T) {
	small := Size(&Op{Type: OpPull, Keys: []kv.Key{1}})
	big := Size(&Op{Type: OpPull, Keys: make([]kv.Key, 100)})
	if big-small != 99*8 {
		t.Fatalf("key size delta = %d, want %d", big-small, 99*8)
	}
	noVals := Size(&Op{Type: OpPush, Keys: []kv.Key{1}})
	withVals := Size(&Op{Type: OpPush, Keys: []kv.Key{1}, Vals: make([]float32, 10)})
	if withVals-noVals != 10*4 {
		t.Fatalf("val size delta = %d, want 40", withVals-noVals)
	}
}

func TestQuickOpRoundTrip(t *testing.T) {
	f := func(id uint64, origin int32, hops uint8, via bool, keys []uint64, vals []float32) bool {
		m := &Op{Type: OpPush, ID: id, Origin: origin, Hops: hops, ViaCache: via}
		for _, k := range keys {
			m.Keys = append(m.Keys, kv.Key(k))
		}
		m.Vals = vals
		dec, _, err := Decode(AppendTo(nil, m))
		if err != nil {
			return false
		}
		got, ok := dec.(*Op)
		if !ok || got.ID != id || got.Origin != origin || got.Hops != hops || got.ViaCache != via {
			return false
		}
		if len(got.Keys) != len(m.Keys) || len(got.Vals) != len(m.Vals) {
			return false
		}
		for i := range m.Keys {
			if got.Keys[i] != m.Keys[i] {
				return false
			}
		}
		for i := range m.Vals {
			// Compare bit patterns so NaNs round-trip.
			if !eqf(got.Vals[i], m.Vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func eqf(x, y float32) bool { return x == y || (x != x && y != y) }

func TestQuickTransferRoundTrip(t *testing.T) {
	f := func(id uint64, keys []uint64, vals []float32) bool {
		m := &RelocTransfer{ID: id, Vals: vals}
		for _, k := range keys {
			m.Keys = append(m.Keys, kv.Key(k))
		}
		dec, _, err := Decode(AppendTo(nil, m))
		if err != nil {
			return false
		}
		got, ok := dec.(*RelocTransfer)
		if !ok || got.ID != id || len(got.Keys) != len(m.Keys) || len(got.Vals) != len(vals) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	for k := KindOp; k <= KindManage; k++ {
		if s := k.String(); s == "" || s[0] == 'K' {
			t.Errorf("Kind(%d).String() = %q", k, s)
		}
	}
	if OpPull.String() != "pull" || OpPush.String() != "push" {
		t.Error("OpType.String mismatch")
	}
}
