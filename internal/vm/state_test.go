package vm

import (
	"encoding/binary"
	"encoding/json"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem"
)

// TestWatchpointsStateRoundTrip: a populated watchpoint set (including
// churn — lines watched then unwatched, pages emptied entirely) must
// survive encode → JSON → decode → restore deep-equal, both in canonical
// state and in observable behavior.
func TestWatchpointsStateRoundTrip(t *testing.T) {
	w := NewWatchpoints()
	rng := rand.New(rand.NewSource(42))
	lines := make([]mem.Line, 3000)
	for i := range lines {
		lines[i] = mem.Line(rng.Uint64() % 100_000)
		w.Watch(lines[i])
	}
	for i := 0; i < len(lines); i += 3 {
		w.Unwatch(lines[i])
	}

	want := w.State()
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var decoded WatchpointsState
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	fresh := NewWatchpoints()
	fresh.SetState(decoded)

	if got := fresh.State(); !reflect.DeepEqual(got, want) {
		t.Error("round-tripped watchpoint state diverged")
	}
	if fresh.Count() != w.Count() {
		t.Errorf("restored count = %d, want %d", fresh.Count(), w.Count())
	}
	for _, l := range lines {
		if fresh.WatchedLine(l) != w.WatchedLine(l) {
			t.Fatalf("line %d: restored watch state diverged", l)
		}
		if p := mem.PageOfLine(l); fresh.WatchedPage(p) != w.WatchedPage(p) {
			t.Fatalf("page of line %d: restored watch state diverged", l)
		}
	}

	// Restore over a non-empty set replaces it outright.
	dirty := NewWatchpoints()
	dirty.Watch(mem.Line(7))
	dirty.SetState(decoded)
	if got := dirty.State(); !reflect.DeepEqual(got, want) {
		t.Error("restore over a dirty set did not replace it")
	}
}

// FuzzWatchpointsState: SetState takes any state a peer or a store hands
// it, 16 bytes per entry (page, then bitmap, little-endian), in any order,
// with duplicate pages and zero bitmaps. It never panics; Count equals the
// bits set over State; State is sorted by page with every page once and
// no empty bitmap, WatchedPage agrees with it, and restoring it gives it
// back. The checked-in corpus
// holds one page twice, a zero bitmap, page 2^64-1 and unsorted pages.
func FuzzWatchpointsState(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		var in WatchpointsState
		for ; len(raw) >= 16; raw = raw[16:] {
			in = append(in, WatchedPage{Page: binary.LittleEndian.Uint64(raw), Bits: binary.LittleEndian.Uint64(raw[8:])})
		}
		w := NewWatchpoints()
		w.SetState(in)
		st := w.State()
		n := 0
		for i, wp := range st {
			next := i+1 < len(st) && st[i+1].Page == wp.Page+1
			if !w.WatchedPage(mem.Page(wp.Page)) || wp.Page+1 != 0 && w.WatchedPage(mem.Page(wp.Page+1)) != next {
				t.Fatalf("WatchedPage disagrees with State around page %d", wp.Page)
			}
			if wp.Bits == 0 {
				t.Fatalf("page %d listed with no watched line", wp.Page)
			}
			if i > 0 && st[i-1].Page >= wp.Page {
				t.Fatalf("State not sorted with unique pages: %d then %d", st[i-1].Page, wp.Page)
			}
			n += bits.OnesCount64(wp.Bits)
		}
		if w.Count() != n {
			t.Fatalf("Count %d, State holds %d lines", w.Count(), n)
		}
		if w.empty() != (n == 0) {
			t.Fatalf("empty() is %v with %d lines", w.empty(), n)
		}
		again := NewWatchpoints()
		again.SetState(st)
		if !reflect.DeepEqual(again.State(), st) || again.Count() != n {
			t.Fatal("State does not round-trip")
		}
		// Unwatching every line empties the set. Pages from 2^58 on hold
		// no line a 64-bit line index reaches, so only Clear drops them.
		high := 0
		for _, wp := range st {
			if wp.Page >= 1<<58 {
				high += bits.OnesCount64(wp.Bits)
			}
			for b := wp.Bits; b != 0 && wp.Page < 1<<58; b &= b - 1 {
				l := mem.Line(wp.Page*mem.LinesPerPage + uint64(bits.TrailingZeros64(b)))
				if !w.WatchedLine(l) {
					t.Fatalf("line %d of page %d not watched", l, wp.Page)
				}
				w.Unwatch(l)
			}
		}
		if w.Count() != high || w.empty() != (high == 0) {
			t.Fatalf("after unwatching every line: Count %d, empty %v; %d lines on unreachable pages", w.Count(), w.empty(), high)
		}
		w.Clear()
		if w.Count() != 0 || !w.empty() {
			t.Fatalf("after Clear: Count %d, empty %v", w.Count(), w.empty())
		}
	})
}
