package vm

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// mapWatchpoints is the original map-of-maps representation, kept as the
// reference oracle for the paged-bitmap implementation.
type mapWatchpoints struct {
	pages map[mem.Page]map[mem.Line]struct{}
	n     int
}

func newMapWatchpoints() *mapWatchpoints {
	return &mapWatchpoints{pages: make(map[mem.Page]map[mem.Line]struct{})}
}

func (w *mapWatchpoints) watch(l mem.Line) {
	p := mem.PageOfLine(l)
	set, ok := w.pages[p]
	if !ok {
		set = make(map[mem.Line]struct{}, 2)
		w.pages[p] = set
	}
	if _, dup := set[l]; !dup {
		set[l] = struct{}{}
		w.n++
	}
}

func (w *mapWatchpoints) unwatch(l mem.Line) {
	p := mem.PageOfLine(l)
	set, ok := w.pages[p]
	if !ok {
		return
	}
	if _, present := set[l]; !present {
		return
	}
	delete(set, l)
	w.n--
	if len(set) == 0 {
		delete(w.pages, p)
	}
}

func (w *mapWatchpoints) watchedPage(p mem.Page) bool { _, ok := w.pages[p]; return ok }

func (w *mapWatchpoints) watchedLine(l mem.Line) bool {
	set, ok := w.pages[mem.PageOfLine(l)]
	if !ok {
		return false
	}
	_, present := set[l]
	return present
}

// TestWatchpointsMatchesMapReference drives the paged-bitmap set and the
// map-of-maps reference through the same randomized operation stream,
// including Clear cycles (the Explorer's per-window reuse).
func TestWatchpointsMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	wp := NewWatchpoints()
	ref := newMapWatchpoints()
	// Lines clustered on few pages so page bitmaps fill, empty and refill.
	lineOf := func() mem.Line {
		return mem.Line(uint64(rng.Intn(48))*mem.LinesPerPage + uint64(rng.Intn(mem.LinesPerPage)))
	}
	for op := 0; op < 200_000; op++ {
		l := lineOf()
		switch rng.Intn(5) {
		case 0, 1:
			wp.Watch(l)
			ref.watch(l)
		case 2:
			wp.Unwatch(l)
			ref.unwatch(l)
		case 3:
			p := mem.PageOfLine(l)
			if got, want := wp.WatchedPage(p), ref.watchedPage(p); got != want {
				t.Fatalf("op %d: WatchedPage(%#x)=%v, reference %v", op, p, got, want)
			}
		case 4:
			if got, want := wp.WatchedLine(l), ref.watchedLine(l); got != want {
				t.Fatalf("op %d: WatchedLine(%#x)=%v, reference %v", op, l, got, want)
			}
		}
		if wp.Count() != ref.n {
			t.Fatalf("op %d: Count=%d, reference %d", op, wp.Count(), ref.n)
		}
		if op%37_001 == 37_000 { // periodic window boundary
			wp.Clear()
			ref = newMapWatchpoints()
		}
	}
}

// TestWatchpointsClearReusesStorage: re-arming the same working set after
// Clear must not allocate — the Explorer clears and re-arms per window.
func TestWatchpointsClearReusesStorage(t *testing.T) {
	wp := NewWatchpoints()
	arm := func() {
		for i := 0; i < 500; i++ {
			wp.Watch(mem.Line(i * 17))
		}
	}
	arm() // size the table
	wp.Clear()
	if wp.Count() != 0 || wp.WatchedLine(0) {
		t.Fatal("watchpoints visible after Clear")
	}
	allocs := testing.AllocsPerRun(10, func() {
		wp.Clear()
		arm()
	})
	if allocs != 0 {
		t.Fatalf("re-arming after Clear allocated %.2f times per window", allocs)
	}
}

// TestWatchpointsBucketSaturates: pages beyond what one bucket of the
// watched-page filter counts (255) stay exact: every watched page reads
// watched through a bucket stuck at its limit, and unwatching them leaves
// the set exactly as the reference says, until Clear empties the bucket.
func TestWatchpointsBucketSaturates(t *testing.T) {
	var pages []mem.Page
	for p := mem.Page(0); len(pages) < 300; p++ {
		if wpBucket(p) == wpBucket(0) {
			pages = append(pages, p)
		}
	}
	wp := NewWatchpoints()
	lineOf := func(p mem.Page) mem.Line { return mem.Line(uint64(p) * mem.LinesPerPage) }
	for _, p := range pages {
		wp.Watch(lineOf(p))
	}
	for i, p := range pages {
		if !wp.WatchedPage(p) {
			t.Fatalf("page %d (%d of %d in one bucket) not watched", p, i, len(pages))
		}
	}
	for _, p := range pages[1:] {
		wp.Unwatch(lineOf(p))
	}
	if !wp.WatchedPage(pages[0]) || wp.WatchedPage(pages[1]) || wp.Count() != 1 {
		t.Fatalf("after unwatching all but one: first watched %v, second %v, Count %d",
			wp.WatchedPage(pages[0]), wp.WatchedPage(pages[1]), wp.Count())
	}
	wp.Unwatch(lineOf(pages[0]))
	if wp.WatchedPage(pages[0]) || !wp.empty() {
		t.Fatal("the last page still watched")
	}
	wp.Clear()
	if wp.mayWatch(pages[0]) {
		t.Fatal("Clear left the bucket occupied")
	}
}
