package mem

import (
	"math/rand"
	"testing"
)

// TestFlatMapMatchesMapReference drives the open-addressing table and the
// Go map it replaces through the same randomized operation stream — the
// map version survives exactly as this reference oracle.
func TestFlatMapMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var ft FlatMap[Line, uint64]
	ref := make(map[Line]uint64)
	// Small key space forces collisions, updates and delete-reinsert churn.
	keyOf := func() Line { return Line(rng.Intn(512)) }
	for op := 0; op < 200_000; op++ {
		k := keyOf()
		switch rng.Intn(4) {
		case 0: // Put
			v := rng.Uint64()
			ft.Put(k, v)
			ref[k] = v
		case 1: // Upsert
			p, inserted := ft.Upsert(k)
			_, present := ref[k]
			if inserted == present {
				t.Fatalf("op %d: Upsert(%d) inserted=%v, reference present=%v", op, k, inserted, present)
			}
			if !present {
				ref[k] = 0
			} else if *p != ref[k] {
				t.Fatalf("op %d: Upsert(%d) value %d, want %d", op, k, *p, ref[k])
			}
		case 2: // Delete
			got := ft.Delete(k)
			_, present := ref[k]
			if got != present {
				t.Fatalf("op %d: Delete(%d)=%v, reference present=%v", op, k, got, present)
			}
			delete(ref, k)
		case 3: // Get
			v, ok := ft.Get(k)
			rv, present := ref[k]
			if ok != present || (ok && v != rv) {
				t.Fatalf("op %d: Get(%d)=(%d,%v), want (%d,%v)", op, k, v, ok, rv, present)
			}
		}
		if ft.Len() != len(ref) {
			t.Fatalf("op %d: Len=%d, want %d", op, ft.Len(), len(ref))
		}
	}
	// Full cross-check both directions.
	for k, rv := range ref {
		if v, ok := ft.Get(k); !ok || v != rv {
			t.Fatalf("final: Get(%d)=(%d,%v), want (%d,true)", k, v, ok, rv)
		}
	}
	n := 0
	ft.Range(func(k Line, v uint64) bool {
		if rv, ok := ref[k]; !ok || rv != v {
			t.Fatalf("Range yielded (%d,%d) not in reference", k, v)
		}
		n++
		return true
	})
	if n != len(ref) {
		t.Fatalf("Range yielded %d entries, want %d", n, len(ref))
	}
}

// TestFlatMapBackwardShiftWraparound exercises deletion runs that wrap
// around the end of the slot array, the delicate case of tombstone-free
// deletion.
func TestFlatMapBackwardShiftWraparound(t *testing.T) {
	var ft FlatMap[Line, uint64]
	// Engineer keys whose home slots cluster at the top of a 16-slot
	// table so their probe runs wrap to slot 0.
	var keys []Line
	for k := Line(0); len(keys) < 8; k++ {
		var probe FlatMap[Line, uint64]
		probe.Grow(1) // 16 slots
		if probe.hashOf(k) >= 13 {
			keys = append(keys, k)
		}
	}
	for i, k := range keys {
		ft.Put(k, uint64(i))
	}
	// Delete in insertion order; survivors must stay reachable each time.
	for i, k := range keys {
		if !ft.Delete(k) {
			t.Fatalf("Delete(%d) reported absent", k)
		}
		if ft.Delete(k) {
			t.Fatalf("double Delete(%d) reported present", k)
		}
		for j := i + 1; j < len(keys); j++ {
			if v, ok := ft.Get(keys[j]); !ok || v != uint64(j) {
				t.Fatalf("after deleting %d: lost survivor %d", k, keys[j])
			}
		}
	}
}

func TestFlatMapResetReusesStorage(t *testing.T) {
	var ft FlatMap[Line, uint64]
	for k := Line(0); k < 300; k++ {
		ft.Put(k, uint64(k))
	}
	ft.Reset()
	if ft.Len() != 0 {
		t.Fatalf("Len=%d after Reset", ft.Len())
	}
	if _, ok := ft.Get(7); ok {
		t.Fatal("entry visible after Reset")
	}
	// Refilling the same working set must not allocate: storage survived.
	allocs := testing.AllocsPerRun(10, func() {
		ft.Reset()
		for k := Line(0); k < 300; k++ {
			ft.Put(k, uint64(k))
		}
	})
	if allocs != 0 {
		t.Fatalf("refill after Reset allocated %.1f times", allocs)
	}
}

func TestFlatSetMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var fs FlatSet[Page]
	ref := make(map[Page]struct{})
	for op := 0; op < 100_000; op++ {
		k := Page(rng.Intn(256))
		switch rng.Intn(3) {
		case 0:
			_, present := ref[k]
			if added := fs.Add(k); added == present {
				t.Fatalf("op %d: Add(%d)=%v, reference present=%v", op, k, added, present)
			}
			ref[k] = struct{}{}
		case 1:
			_, present := ref[k]
			if got := fs.Delete(k); got != present {
				t.Fatalf("op %d: Delete(%d)=%v, reference present=%v", op, k, got, present)
			}
			delete(ref, k)
		case 2:
			_, present := ref[k]
			if got := fs.Has(k); got != present {
				t.Fatalf("op %d: Has(%d)=%v, reference=%v", op, k, got, present)
			}
		}
		if fs.Len() != len(ref) {
			t.Fatalf("op %d: Len=%d, want %d", op, fs.Len(), len(ref))
		}
	}
}

func TestBatchReuse(t *testing.T) {
	var b Batch
	for i := 0; i < 100; i++ {
		b.Add(Access{Addr: Addr(i), MemIdx: uint64(i)})
	}
	if b.Len() != 100 {
		t.Fatalf("Len=%d", b.Len())
	}
	b.Reset()
	if b.Len() != 0 || cap(b) < 100 {
		t.Fatalf("Reset lost storage: len=%d cap=%d", b.Len(), cap(b))
	}
	allocs := testing.AllocsPerRun(10, func() {
		b.Reset()
		for i := 0; i < 100; i++ {
			b.Add(Access{Addr: Addr(i)})
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Batch refill allocated %.1f times", allocs)
	}
}
