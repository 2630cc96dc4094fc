package cache

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/workload"
)

// driveHierarchy runs n instructions of a profile's stream through the
// hierarchy, exercising both the instruction and data sides (and the
// prefetcher, when configured).
func driveHierarchy(h *Hierarchy, prof *workload.Profile, scale, n uint64) {
	prog := prof.NewProgram(scale)
	var ins workload.Instr
	for i := uint64(0); i < n; i++ {
		prog.Next(&ins)
		h.AccessInstr(ins.FetchLine)
		if ins.Kind == workload.KindLoad || ins.Kind == workload.KindStore {
			h.AccessData(&mem.Access{Addr: ins.Addr, Write: ins.Kind == workload.KindStore,
				MemIdx: prog.MemIndex(), InstrIdx: prog.InstrIndex()})
		}
	}
}

// TestHierarchyStateRoundTrip: for every suite profile and both hierarchy
// shapes (the paper default and a small prefetching configuration), a
// warmed hierarchy's state must survive encode → JSON → decode → restore
// into a fresh hierarchy deep-equal — the persistence path of a
// checkpointed engine.
func TestHierarchyStateRoundTrip(t *testing.T) {
	small := DefaultHierarchy(1<<20, 256)
	small.Prefetch = true
	configs := []struct {
		name  string
		scale uint64
		cfg   HierarchyConfig
	}{
		{"default-8M", 64, DefaultHierarchy(8<<20, 64)},
		{"prefetch-1M", 256, small},
	}
	for _, tc := range configs {
		for _, prof := range workload.Benchmarks() {
			h := NewHierarchy(tc.cfg, nil)
			driveHierarchy(h, prof, tc.scale, 20_000)
			want := h.State(true)

			b, err := json.Marshal(want)
			if err != nil {
				t.Fatalf("%s/%s: encode: %v", tc.name, prof.Name, err)
			}
			var decoded HierarchyState
			if err := json.Unmarshal(b, &decoded); err != nil {
				t.Fatalf("%s/%s: decode: %v", tc.name, prof.Name, err)
			}
			fresh := NewHierarchy(tc.cfg, nil)
			if err := fresh.SetState(decoded); err != nil {
				t.Fatalf("%s/%s: restore: %v", tc.name, prof.Name, err)
			}
			if got := fresh.State(true); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: round-tripped hierarchy state diverged", tc.name, prof.Name)
			}
		}
	}
}

// TestHierarchyStateRejectsShapeMismatch: restoring into a hierarchy of a
// different geometry or prefetcher setup fails loudly instead of
// corrupting state.
func TestHierarchyStateRejectsShapeMismatch(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy(8<<20, 64), nil)
	driveHierarchy(h, workload.Mcf(), 64, 5_000)
	s := h.State(true)

	if err := NewHierarchy(DefaultHierarchy(1<<20, 256), nil).SetState(s); err == nil {
		t.Error("restore accepted a wrong-geometry hierarchy state")
	}
	pref := DefaultHierarchy(8<<20, 64)
	pref.Prefetch = true
	if err := NewHierarchy(pref, nil).SetState(s); err == nil {
		t.Error("restore accepted a state without the target's prefetcher")
	}
}

// TestCacheStateGoldenFixture pins the CacheState wire format with a
// checked-in JSON literal captured before the way metadata moved to the
// structure-of-arrays layout. The wire form has always been parallel
// tag/age arrays, so a checkpoint persisted by the AoS build must decode,
// restore and behave identically on the SoA build — this is the
// compatibility contract for every artifact store written before it. The
// fixture still carries the "rng" field of the since-removed
// random-replacement policy: LRU never read it, so decoding ignores it and
// the re-encoding is the fixture without it.
func TestCacheStateGoldenFixture(t *testing.T) {
	// A 4-line 2-way cache (2 sets): set 0 holds line 10 (age 5) with way 1
	// invalid; set 1 is full with lines 21 (age 7) and 33 (age 3).
	const fixture = `{"tags":[10,0,21,33],"ages":[5,0,7,3],"tick":9,"rng":77,"hits":6,"misses":4,"mshr_hits":1}`
	const reencoded = `{"tags":[10,0,21,33],"ages":[5,0,7,3],"tick":9,"hits":6,"misses":4,"mshr_hits":1}`
	cfg := Config{Name: "golden", SizeB: 4 * mem.LineSize, Assoc: 2, HitLat: 3}

	var s CacheState
	if err := json.Unmarshal([]byte(fixture), &s); err != nil {
		t.Fatalf("decode fixture: %v", err)
	}
	c := New(cfg)
	if err := c.SetState(s); err != nil {
		t.Fatalf("restore fixture: %v", err)
	}

	// Re-encoding the restored state must reproduce the fixture bytes, less
	// the "rng" field.
	got, err := json.Marshal(c.State())
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if string(got) != reencoded {
		t.Fatalf("wire format drifted:\n got  %s\n want %s", got, reencoded)
	}

	// And the restored cache must behave as the captured one did.
	if c.Occupancy() != 3 {
		t.Fatalf("occupancy = %d, want 3", c.Occupancy())
	}
	for l, want := range map[mem.Line]bool{10: true, 21: true, 33: true, 12: false, 1: false} {
		if c.Probe(l) != want {
			t.Errorf("Probe(%d) = %v, want %v", l, !want, want)
		}
	}
	// A conflicting access in full set 1 must evict the LRU way (line 33,
	// age 3 < 7) — the decision a pre-SoA cache restored from this state
	// would make.
	out, victim, evicted := c.Lookup(43)
	if out != Miss || !evicted || victim != 33 {
		t.Errorf("Lookup(43) = (%v, %d, %v), want (Miss, 33, true)", out, victim, evicted)
	}
}
