package reuse

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/stats"
)

func acc(line mem.Line, memIdx uint64, pc uint64) *mem.Access {
	return &mem.Access{PC: pc, Addr: line.Base(), MemIdx: memIdx}
}

func TestExactMonitor(t *testing.T) {
	m := NewExactMonitor()
	if _, seen := m.ObserveLine(1, 0); seen {
		t.Fatal("first access reported as reuse")
	}
	m.ObserveLine(2, 1)
	d, seen := m.ObserveLine(1, 5)
	if !seen || d != 5 {
		t.Fatalf("reuse = (%d,%v), want (5,true)", d, seen)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if v, ok := m.LastAccess(1); !ok || v != 5 {
		t.Fatalf("LastAccess = (%d,%v)", v, ok)
	}
}

// Property: on a cyclic sweep over N lines every reuse distance equals N.
func TestExactMonitorCyclic(t *testing.T) {
	f := func(n uint8) bool {
		N := uint64(n%60) + 4
		m := NewExactMonitor()
		idx := uint64(0)
		for sweep := 0; sweep < 3; sweep++ {
			for l := uint64(0); l < N; l++ {
				d, seen := m.ObserveLine(mem.Line(l), idx)
				if sweep > 0 && (!seen || d != N) {
					return false
				}
				idx++
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyCollector(t *testing.T) {
	keys := []KeySpec{{Line: 10, FirstMem: 200}, {Line: 20, FirstMem: 205}, {Line: 30, FirstMem: 210}}
	k := NewKeyCollector(keys)
	k.Observe(acc(10, 100, 0))
	k.Observe(acc(10, 150, 0)) // later access supersedes: only the last matters
	k.Observe(acc(20, 120, 0))
	found, missing := k.Finalize(2)
	if len(found) != 2 || len(missing) != 1 || missing[0].Line != 30 {
		t.Fatalf("found=%v missing=%v", found, missing)
	}
	for _, r := range found {
		switch r.Line {
		case 10:
			if r.Dist != 50 {
				t.Errorf("line 10 dist = %d, want 50 (last access wins)", r.Dist)
			}
		case 20:
			if r.Dist != 85 {
				t.Errorf("line 20 dist = %d, want 85", r.Dist)
			}
		}
		if r.Explorer != 2 || !r.Found {
			t.Errorf("record meta wrong: %+v", r)
		}
	}
}

func TestForwardSampler(t *testing.T) {
	f := NewForwardSampler(100, true)
	if !f.Start(acc(5, 10, 0xAA)) {
		t.Fatal("Start failed")
	}
	if f.Start(acc(5, 12, 0xBB)) {
		t.Fatal("duplicate Start on armed line must be rejected")
	}
	if f.Complete(acc(6, 15, 0)) {
		t.Fatal("Complete on unwatched line must fail")
	}
	if !f.Complete(acc(5, 30, 0xCC)) {
		t.Fatal("Complete failed")
	}
	if f.Completed != 1 || f.Started != 1 {
		t.Fatalf("counters: started=%d completed=%d", f.Started, f.Completed)
	}
	// Distance 20, recorded under the *sampled* PC (0xAA), weighted x100.
	if f.Hist.Weight() != 100 {
		t.Fatalf("weight = %f, want 100", f.Hist.Weight())
	}
	if h := f.PerPC[0xAA]; h == nil || h.Samples() != 1 {
		t.Fatal("per-PC histogram missing")
	}
	if f.PerPC[0xCC] != nil {
		t.Fatal("completion PC must not get the sample")
	}
}

func TestForwardSamplerAbandon(t *testing.T) {
	f := NewForwardSampler(1, false)
	f.Start(acc(1, 0, 0))
	f.Start(acc(2, 1, 0))
	if got := len(f.PendingLines()); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	n := f.AbandonPending(true)
	if n != 2 || len(f.PendingLines()) != 0 {
		t.Fatalf("abandon = %d, pending remain %d", n, len(f.PendingLines()))
	}
	if f.Hist.ColdFraction() != 1 {
		t.Fatalf("cold fraction = %f, want 1", f.Hist.ColdFraction())
	}
}

// Property: forward-sampled distances equal exact-monitor distances for
// the same trace (watchpoint sampling is unbiased on the sampled points).
func TestForwardMatchesExact(t *testing.T) {
	r := stats.NewRNG(11)
	f := NewForwardSampler(1, false)
	type started struct {
		line mem.Line
		at   uint64
	}
	var armed []started
	exact := NewExactMonitor()
	// Build a random trace; arm every 10th access; verify each completion.
	next := make(map[mem.Line]uint64)
	_ = next
	var collected []uint64
	for i := uint64(0); i < 50000; i++ {
		l := mem.Line(r.Uint64n(64))
		a := acc(l, i, 0)
		// Completion check before arming (the sampler sees the access first).
		if f.Complete(a) {
			// Find the matching armed record.
			for j := range armed {
				if armed[j].line == l {
					collected = append(collected, i-armed[j].at)
					armed = append(armed[:j], armed[j+1:]...)
					break
				}
			}
		}
		exact.ObserveLine(l, i)
		if i%10 == 0 {
			if f.Start(a) {
				armed = append(armed, started{l, i})
			}
		}
	}
	if len(collected) == 0 {
		t.Fatal("no samples completed")
	}
	if uint64(len(collected)) != f.Completed {
		t.Fatalf("bookkeeping mismatch: %d vs %d", len(collected), f.Completed)
	}
}
