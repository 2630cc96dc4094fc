package vm

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/workload"
)

// TestPipelinedWalkPanics: a panic on either side of a pipelined walk — in
// OnData on the caller's goroutine, or in the predictor on the helper's —
// re-panics from RunFuncWarm on the caller's goroutine with the same
// value, leaves no goroutine behind, and leaves an engine that runs the
// next walk exactly as the per-instruction loop would.
func TestPipelinedWalkPanics(t *testing.T) {
	prof := workload.Mcf()
	const scale = 256
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		arm  func(s *warmSide)
		want func(r any) bool
	}{
		{"OnData", func(s *warmSide) {
			var seen int
			h := s.w.Hier
			s.w.OnData = func(a *mem.Access) {
				if seen++; seen == 3*handoffInstrs/4 {
					panic(boom)
				}
				h.WarmData(a.Line())
			}
		}, func(r any) bool { return r == boom }},
		{"predictor", func(s *warmSide) {
			s.w.BP = &cpu.BranchPred{} // no tables: its first index divides by zero
		}, func(r any) bool { _, ok := r.(runtime.Error); return ok }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			s := newWarmSide(t, prof, scale, prof.NewProgram(scale).Position(), false)
			tc.arm(s)
			func() {
				defer func() {
					if r := recover(); !tc.want(r) {
						t.Fatalf("RunFuncWarm panicked with %v", r)
					}
				}()
				s.eng.RunFuncWarm(2*pipeMinInstrs, true, s.w)
				t.Fatal("RunFuncWarm returned from a panicking walk")
			}()
			for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the panic, %d before", runtime.NumGoroutine(), base)
				}
			}

			// The same engine runs the next walk from wherever the
			// panic left its program, into fresh caches and predictor.
			ref := newWarmSide(t, prof, scale, s.eng.Prog.Position(), false)
			s.w = &Warming{Hier: cache.NewHierarchy(cache.DefaultHierarchy(scale<<18, scale), nil),
				BP: cpu.NewBranchPred(cpu.DefaultBPConfig())}
			s.events = nil
			for _, n := range []uint64{pipeMinInstrs + 1_001, 2_001} {
				ref.eng.refRunFuncWarm(n, true, ref.w)
				s.eng.RunFuncWarm(n, true, s.w)
				requireWarmEqual(t, "after the panic", s, ref)
			}
		})
	}
}

// TestPipelinedWalkAllocs: a pipelined walk on an engine whose ring is
// already built allocates a small constant per call — the helper's start
// — and nothing per hand-off, so a walk eight times longer allocates no
// more.
func TestPipelinedWalkAllocs(t *testing.T) {
	prof := workload.Mcf()
	s := newWarmSide(t, prof, 256, prof.NewProgram(256).Position(), false)
	var allocs [2]float64
	for i, n := range []uint64{pipeMinInstrs, 8 * pipeMinInstrs} {
		allocs[i] = testing.AllocsPerRun(5, func() { s.eng.RunFuncWarm(n, true, s.w) })
	}
	if allocs[0] > 2 || allocs[1] > allocs[0] {
		t.Fatalf("allocations per call: %v for %d and %d instructions; want at most 2, not growing with the walk",
			allocs, pipeMinInstrs, 8*pipeMinInstrs)
	}
}

// TestFetchPastWalkEndPanics: an access at the walk's end, which no
// correct decode produces, makes the fetch replay panic with a message
// instead of spinning forever on zero-length fetch runs.
func TestFetchPastWalkEndPanics(t *testing.T) {
	prog := workload.Mcf().NewProgram(256)
	h := cache.NewHierarchy(cache.DefaultHierarchy(256<<18, 256), nil)
	f := fetchCursor{walk: prog.FetchWalk(), next: prog.InstrIndex()}
	f.end = f.next + 10
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		f.warm(&Warming{Hier: h}, mem.Batch{{InstrIdx: f.end}})
	}()
	select {
	case r := <-done:
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "past the walk's end") {
			t.Fatalf("fetch replay panicked with %v, want the past-the-end message", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fetch replay still running 10 s after an access at the walk's end")
	}
}
