package mem

import "math/bits"

// FlatMap is an open-addressing hash table for the simulation hot path:
// power-of-two capacity, linear probing, Fibonacci hashing, and
// tombstone-free deletion (backward shift), keyed by any uint64-shaped
// type (Line, Page). It replaces Go maps on per-access paths because a
// probe is a handful of array reads with no hashing interface, no bucket
// pointers and no per-entry allocation, and because Reset retains the
// backing storage so per-window structures reuse their capacity.
//
// Keys, values and liveness are parallel arrays (measured faster here
// than a packed slot struct: the key scan stays dense while values load
// only on a confirmed match). The zero value is an empty map. Not safe
// for concurrent use. The map-based equivalents survive only as reference
// oracles in tests.
type FlatMap[K ~uint64, V any] struct {
	keys  []K
	vals  []V
	live  []bool
	n     int
	shift uint8 // 64 - log2(len(keys))
}

const flatMinCap = 16

// hashOf spreads the key with the 64-bit Fibonacci multiplier; the high
// bits select the slot, which linear probing then walks.
func (t *FlatMap[K, V]) hashOf(k K) uint64 {
	return (uint64(k) * 0x9E3779B97F4A7C15) >> t.shift
}

// Len returns the number of entries.
func (t *FlatMap[K, V]) Len() int { return t.n }

// Get returns the value stored under k.
func (t *FlatMap[K, V]) Get(k K) (V, bool) {
	if p := t.Ptr(k); p != nil {
		return *p, true
	}
	var zero V
	return zero, false
}

// Ptr returns a pointer to k's value slot, or nil when absent. The pointer
// is invalidated by the next insertion or deletion.
func (t *FlatMap[K, V]) Ptr(k K) *V {
	if t.n == 0 {
		return nil
	}
	mask := uint64(len(t.keys) - 1)
	for i := t.hashOf(k); t.live[i]; i = (i + 1) & mask {
		if t.keys[i] == k {
			return &t.vals[i]
		}
	}
	return nil
}

// Upsert returns a pointer to k's value slot, inserting the zero value
// first when absent (inserted reports which). The pointer is invalidated
// by the next insertion or deletion.
func (t *FlatMap[K, V]) Upsert(k K) (p *V, inserted bool) {
	if t.n+1 > len(t.keys)-len(t.keys)/4 { // load factor 3/4, and init
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	i := t.hashOf(k)
	for t.live[i] {
		if t.keys[i] == k {
			return &t.vals[i], false
		}
		i = (i + 1) & mask
	}
	t.keys[i] = k
	var zero V
	t.vals[i] = zero
	t.live[i] = true
	t.n++
	return &t.vals[i], true
}

// Put stores v under k.
func (t *FlatMap[K, V]) Put(k K, v V) {
	p, _ := t.Upsert(k)
	*p = v
}

// Delete removes k, reporting whether it was present. Deletion is
// tombstone-free: the vacated slot is backfilled by shifting every
// displaced entry of the probe run toward its home slot, so lookups never
// scan dead slots and the table never degrades under churn.
func (t *FlatMap[K, V]) Delete(k K) bool {
	if t.n == 0 {
		return false
	}
	mask := uint64(len(t.keys) - 1)
	i := t.hashOf(k)
	for {
		if !t.live[i] {
			return false
		}
		if t.keys[i] == k {
			break
		}
		i = (i + 1) & mask
	}
	t.deleteSlot(i, mask)
	return true
}

// deleteSlot empties slot i, backward-shifting the rest of the probe run.
func (t *FlatMap[K, V]) deleteSlot(i, mask uint64) {
	j := i
	for {
		j = (j + 1) & mask
		if !t.live[j] {
			break
		}
		h := t.hashOf(t.keys[j])
		// Move the entry at j into the hole at i iff its home slot h does
		// not lie in the cyclic interval (i, j] — i.e. probing from h
		// would have to walk through i to reach j.
		if (j > i && (h <= i || h > j)) || (j < i && h <= i && h > j) {
			t.keys[i] = t.keys[j]
			t.vals[i] = t.vals[j]
			i = j
		}
	}
	t.live[i] = false
	var zero V
	t.vals[i] = zero // release any references held by the value
	t.n--
}

// Range calls f for every entry until f returns false. Iteration order is
// unspecified; the table must not be modified during iteration.
func (t *FlatMap[K, V]) Range(f func(K, V) bool) {
	for i := range t.keys {
		if t.live[i] && !f(t.keys[i], t.vals[i]) {
			return
		}
	}
}

// Reset empties the table, retaining the backing storage — the per-window
// reuse primitive (vm.Watchpoints.Clear and friends build on it).
func (t *FlatMap[K, V]) Reset() {
	clear(t.live)
	var zero V
	for i := range t.vals {
		t.vals[i] = zero
	}
	t.n = 0
}

// Grow reserves capacity for at least n entries, so a table sized for its
// working set up front never rehashes on the hot path.
func (t *FlatMap[K, V]) Grow(n int) {
	need := flatMinCap
	for need-need/4 < n {
		need <<= 1
	}
	if need > len(t.keys) {
		t.rehash(need)
	}
}

func (t *FlatMap[K, V]) grow() {
	cap := len(t.keys) * 2
	if cap < flatMinCap {
		cap = flatMinCap
	}
	t.rehash(cap)
}

func (t *FlatMap[K, V]) rehash(cap int) {
	oldKeys, oldVals, oldLive := t.keys, t.vals, t.live
	t.keys = make([]K, cap)
	t.vals = make([]V, cap)
	t.live = make([]bool, cap)
	t.shift = uint8(64 - bits.Len(uint(cap-1)))
	t.n = 0
	mask := uint64(cap - 1)
	for i := range oldKeys {
		if !oldLive[i] {
			continue
		}
		j := t.hashOf(oldKeys[i])
		for t.live[j] {
			j = (j + 1) & mask
		}
		t.keys[j] = oldKeys[i]
		t.vals[j] = oldVals[i]
		t.live[j] = true
		t.n++
	}
}

// FlatSet is FlatMap with no values: the hot-path replacement for
// map[Line]struct{} working sets (Scout first-touch filters, Explorer key
// sets).
type FlatSet[K ~uint64] struct {
	m FlatMap[K, struct{}]
}

// Add inserts k, reporting whether it was new.
func (s *FlatSet[K]) Add(k K) bool {
	_, inserted := s.m.Upsert(k)
	return inserted
}

// Has reports membership.
func (s *FlatSet[K]) Has(k K) bool { return s.m.Ptr(k) != nil }

// Delete removes k, reporting whether it was present.
func (s *FlatSet[K]) Delete(k K) bool { return s.m.Delete(k) }

// Len returns the number of members.
func (s *FlatSet[K]) Len() int { return s.m.Len() }

// Reset empties the set, retaining the backing storage.
func (s *FlatSet[K]) Reset() { s.m.Reset() }

// Grow reserves capacity for at least n members.
func (s *FlatSet[K]) Grow(n int) { s.m.Grow(n) }

// Range calls f for every member until f returns false.
func (s *FlatSet[K]) Range(f func(K) bool) {
	s.m.Range(func(k K, _ struct{}) bool { return f(k) })
}
