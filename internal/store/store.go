// Package store provides the local parameter stores used by all
// parameter-server variants: a dense array store for contiguous key spaces
// and a sparse map store. Both guarantee per-key atomic reads and writes via
// a striped list of latches (locks held only for the duration of one
// operation), exactly as Section 3.7 of the paper describes.
package store

import (
	"fmt"
	"math/bits"
	"sync"

	"lapse/internal/kv"
)

// DefaultLatches is the default number of latches in a store's latch list.
// The paper reports that 1000 worked well in its experiments.
const DefaultLatches = 1000

// Store is a node-local parameter store. Implementations are safe for
// concurrent use by worker threads and the server thread.
type Store interface {
	// Read copies the current value of k into dst and reports whether the
	// key is present. dst must have length Len(k). If the key is absent,
	// dst is untouched and Read returns false.
	Read(k kv.Key, dst []float32) bool
	// Add atomically adds delta to the value of k and reports whether the
	// key is present. Absent keys are not created.
	Add(k kv.Key, delta []float32) bool
	// Set inserts or replaces the value of k.
	Set(k kv.Key, vals []float32)
	// Take removes k from the store and returns its value, or nil if the
	// key is absent. Used by the relocation protocol ("remove the parameter
	// from its local storage and transfer it").
	Take(k kv.Key) []float32
	// Has reports whether k is present.
	Has(k kv.Key) bool
	// Len returns the value length of k under the store's layout.
	Len(k kv.Key) int
	// Layout returns the store's key layout.
	Layout() kv.Layout
	// Keys returns the number of present keys.
	Keys() int
}

// latchList is a fixed pool of mutexes with a one-to-many mapping from
// latches to keys. Keys map to latches by Fibonacci-multiply hashing rather
// than a plain modulo: workloads overwhelmingly touch *contiguous* key
// blocks (range-partitioned shards, embedding rows), and under modulo those
// adjacent keys land on adjacent mutexes — eight of which share one cache
// line, so independent per-key latches still ping-pong the same line
// between cores (false sharing). Multiplying by the 64-bit golden-ratio
// constant first scatters adjacent keys across the whole pool
// (BenchmarkLatchAdjacentKeysContendedAdd quantifies the win). The pool
// size is rounded up to a power of two so the hash reduces with a shift.
type latchList struct {
	latches []sync.Mutex
	shift   uint
}

// fibMult is 2^64 / φ, the Fibonacci-hashing multiplier.
const fibMult = 0x9E3779B97F4A7C15

func newLatchList(n int) *latchList {
	if n <= 0 {
		n = DefaultLatches
	}
	// Round up to a power of two (DefaultLatches 1000 -> 1024).
	size := 1
	for size < n {
		size <<= 1
	}
	return &latchList{latches: make([]sync.Mutex, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
}

func (l *latchList) lock(k kv.Key) *sync.Mutex {
	m := &l.latches[l.index(k)]
	m.Lock()
	return m
}

// index returns the position of k's latch in the pool.
func (l *latchList) index(k kv.Key) int { return int((uint64(k) * fibMult) >> l.shift) }

// Dense is a Store backed by one contiguous float32 array covering the whole
// key space of its layout, plus a presence bitmap. It is the store variant
// the paper uses for all experiments ("using dense storage").
type Dense struct {
	layout  kv.Layout
	vals    []float32
	present []bool
	nKeys   int64
	latches *latchList
	mu      sync.Mutex // guards nKeys and present transitions
}

// NewDense returns an empty dense store for layout with nLatches latches
// (DefaultLatches if nLatches <= 0).
func NewDense(layout kv.Layout, nLatches int) *Dense {
	return &Dense{
		layout:  layout,
		vals:    make([]float32, layout.TotalLen()),
		present: make([]bool, layout.NumKeys()),
		latches: newLatchList(nLatches),
	}
}

// Layout implements Store.
func (d *Dense) Layout() kv.Layout { return d.layout }

// Len implements Store.
func (d *Dense) Len(k kv.Key) int { return d.layout.Len(k) }

// Read implements Store.
func (d *Dense) Read(k kv.Key, dst []float32) bool {
	l := d.latches.lock(k)
	defer l.Unlock()
	if !d.present[k] {
		return false
	}
	off := d.layout.Offset(k)
	copy(dst, d.vals[off:off+int64(d.layout.Len(k))])
	return true
}

// Add implements Store.
func (d *Dense) Add(k kv.Key, delta []float32) bool {
	l := d.latches.lock(k)
	defer l.Unlock()
	if !d.present[k] {
		return false
	}
	off := d.layout.Offset(k)
	v := d.vals[off : off+int64(d.layout.Len(k))]
	if len(delta) != len(v) {
		panic(fmt.Sprintf("store: Add length mismatch for key %d: %d != %d", k, len(delta), len(v)))
	}
	for i, x := range delta {
		v[i] += x
	}
	return true
}

// Set implements Store.
func (d *Dense) Set(k kv.Key, vals []float32) {
	l := d.latches.lock(k)
	defer l.Unlock()
	off := d.layout.Offset(k)
	v := d.vals[off : off+int64(d.layout.Len(k))]
	if len(vals) != len(v) {
		panic(fmt.Sprintf("store: Set length mismatch for key %d: %d != %d", k, len(vals), len(v)))
	}
	copy(v, vals)
	if !d.present[k] {
		d.mu.Lock()
		if !d.present[k] {
			d.present[k] = true
			d.nKeys++
		}
		d.mu.Unlock()
	}
}

// Take implements Store.
func (d *Dense) Take(k kv.Key) []float32 {
	l := d.latches.lock(k)
	defer l.Unlock()
	if !d.present[k] {
		return nil
	}
	off := d.layout.Offset(k)
	v := d.vals[off : off+int64(d.layout.Len(k))]
	out := make([]float32, len(v))
	copy(out, v)
	for i := range v {
		v[i] = 0
	}
	d.mu.Lock()
	d.present[k] = false
	d.nKeys--
	d.mu.Unlock()
	return out
}

// Has implements Store.
func (d *Dense) Has(k kv.Key) bool {
	l := d.latches.lock(k)
	defer l.Unlock()
	return d.present[k]
}

// Keys implements Store.
func (d *Dense) Keys() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int(d.nKeys)
}

// Sparse is a Store backed by maps, suitable for non-contiguous key spaces
// or when a node holds a small subset of the keys. The map is split by
// latch, each part guarded by its latch, so an operation takes one lock and
// no lock word is shared by all readers.
type Sparse struct {
	layout  kv.Layout
	latches *latchList
	parts   []map[kv.Key][]float32 // parts[i] is guarded by latch i
}

// NewSparse returns an empty sparse store for layout with nLatches latches.
func NewSparse(layout kv.Layout, nLatches int) *Sparse {
	l := newLatchList(nLatches)
	return &Sparse{layout: layout, latches: l, parts: make([]map[kv.Key][]float32, len(l.latches))}
}

// lock takes k's latch and returns it with the index of k's map part.
func (s *Sparse) lock(k kv.Key) (*sync.Mutex, int) {
	i := s.latches.index(k)
	m := &s.latches.latches[i]
	m.Lock()
	return m, i
}

// Layout implements Store.
func (s *Sparse) Layout() kv.Layout { return s.layout }

// Len implements Store.
func (s *Sparse) Len(k kv.Key) int { return s.layout.Len(k) }

// Read implements Store.
func (s *Sparse) Read(k kv.Key, dst []float32) bool {
	l, i := s.lock(k)
	defer l.Unlock()
	v, ok := s.parts[i][k]
	if !ok {
		return false
	}
	copy(dst, v)
	return true
}

// Add implements Store.
func (s *Sparse) Add(k kv.Key, delta []float32) bool {
	l, i := s.lock(k)
	defer l.Unlock()
	v, ok := s.parts[i][k]
	if !ok {
		return false
	}
	if len(delta) != len(v) {
		panic(fmt.Sprintf("store: Add length mismatch for key %d: %d != %d", k, len(delta), len(v)))
	}
	for j, x := range delta {
		v[j] += x
	}
	return true
}

// Set implements Store.
func (s *Sparse) Set(k kv.Key, vals []float32) {
	want := s.layout.Len(k)
	if len(vals) != want {
		panic(fmt.Sprintf("store: Set length mismatch for key %d: %d != %d", k, len(vals), want))
	}
	l, i := s.lock(k)
	defer l.Unlock()
	if v, ok := s.parts[i][k]; ok {
		copy(v, vals)
		return
	}
	if s.parts[i] == nil {
		s.parts[i] = make(map[kv.Key][]float32)
	}
	v := make([]float32, want)
	copy(v, vals)
	s.parts[i][k] = v
}

// Take implements Store.
func (s *Sparse) Take(k kv.Key) []float32 {
	l, i := s.lock(k)
	defer l.Unlock()
	v, ok := s.parts[i][k]
	if !ok {
		return nil
	}
	delete(s.parts[i], k)
	return v
}

// Has implements Store.
func (s *Sparse) Has(k kv.Key) bool {
	l, i := s.lock(k)
	defer l.Unlock()
	_, ok := s.parts[i][k]
	return ok
}

// Keys implements Store.
func (s *Sparse) Keys() int {
	n := 0
	for i := range s.parts {
		m := &s.latches.latches[i]
		m.Lock()
		n += len(s.parts[i])
		m.Unlock()
	}
	return n
}

var (
	_ Store = (*Dense)(nil)
	_ Store = (*Sparse)(nil)
)
