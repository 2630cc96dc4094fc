package vm

import (
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/workload"
)

// watchedLines lists the lines w watches, in ascending order.
func watchedLines(w *Watchpoints) []mem.Line {
	var out []mem.Line
	w.pages.Range(func(p mem.Page, bm uint64) bool {
		for ; bm != 0; bm &= bm - 1 {
			out = append(out, mem.LineOf(p.Base())+mem.Line(bits.TrailingZeros64(bm)))
		}
		return true
	})
	slices.Sort(out)
	return out
}

// refRunVDP is the per-instruction RunVDP that builds every instruction
// through Program.Next, kept as the reference oracle for the batched one:
// its sample clock counts every instruction and is checked at each memory
// access.
func (e *Engine) refRunVDP(n uint64, cfg *VDPConfig) {
	var ins workload.Instr
	var triggers, falsePos, sampleStops float64
	for i := uint64(0); i < n; i++ {
		memIdx := e.Prog.MemIndex()
		instrIdx := e.Prog.InstrIndex()
		e.Prog.Next(&ins)
		if cfg.SampleEvery > 0 {
			e.sampleCount++
		}
		if ins.Kind != workload.KindLoad && ins.Kind != workload.KindStore {
			continue
		}
		isSample := false
		if cfg.SampleEvery > 0 && e.sampleCount >= cfg.SampleEvery {
			e.sampleCount = 0
			isSample = true
		}
		watchedPage := cfg.WPs != nil && cfg.WPs.WatchedPage(mem.PageOf(ins.Addr))
		if !isSample && !watchedPage {
			continue
		}
		a := mem.Access{PC: ins.PC, Addr: ins.Addr,
			Write: ins.Kind == workload.KindStore, MemIdx: memIdx, InstrIdx: instrIdx}
		if isSample {
			sampleStops++
			if cfg.OnSample != nil {
				cfg.OnSample(&a)
			}
		}
		if watchedPage {
			triggers++
			if cfg.WPs.WatchedLine(a.Line()) {
				if cfg.OnTrigger != nil {
					cfg.OnTrigger(&a)
				}
			} else {
				falsePos++
			}
		}
	}
	e.charge(KindVDP, float64(n))
	if cfg.TriggersFixed {
		e.Counters.Add("fix/"+KindTrigger, triggers)
		e.Counters.Add("fix/"+KindTriggerFP, falsePos)
		e.Counters.Add("fix/"+KindSampleStop, sampleStops)
	} else {
		e.charge(KindTrigger, triggers)
		e.charge(KindTriggerFP, falsePos)
		e.charge(KindSampleStop, sampleStops)
	}
}

// vdpEvent is one delivered callback: 'S' for OnSample, 'T' for OnTrigger.
type vdpEvent struct {
	kind byte
	a    mem.Access
}

// vdpRecorder is one side's callbacks: a forward sampler in the CoolSim
// shape, which arms a watchpoint at every sample and disarms it at the
// reuse, so the watched set changes in the middle of a chunk.
type vdpRecorder struct {
	wps     *Watchpoints
	pending map[mem.Line]bool
	events  []vdpEvent
}

func (r *vdpRecorder) config(every uint64, fixed bool) *VDPConfig {
	return &VDPConfig{
		WPs:           r.wps,
		SampleEvery:   every,
		TriggersFixed: fixed,
		OnSample: func(a *mem.Access) {
			r.events = append(r.events, vdpEvent{'S', *a})
			if l := a.Line(); !r.wps.WatchedLine(l) {
				r.wps.Watch(l)
				r.pending[l] = true
			}
		},
		OnTrigger: func(a *mem.Access) {
			r.events = append(r.events, vdpEvent{'T', *a})
			if l := a.Line(); r.pending[l] {
				delete(r.pending, l)
				r.wps.Unwatch(l)
			}
		},
	}
}

// vdpCall is one RunVDP call of a reference test: its span and sampling
// interval, or, with clear, an emptying of both sides' watched sets
// between calls, as CoolSim's walk clears its set at each region.
type vdpCall struct {
	span, every uint64
	clear       bool
}

// atChunkStart, as a call's interval, asks for the interval that makes
// the call's first stop land on an access the idle walk skips straight
// to, so that the stop is the first instruction of the chunk decoded
// after the skip.
const atChunkStart = ^uint64(0)

// TestRunVDPMatchesReference pins the batched RunVDP to the
// per-instruction oracle over every benchmark: the same ordered callbacks,
// ledger, program state and sample clock, over back-to-back calls whose
// spans straddle chunk boundaries and whose sampling intervals change
// between calls (0 included), as CoolSim's schedule segments do. The
// longer spans sit one below, at and one above vdpSplitMin, where a walk
// splits when GOMAXPROCS > 1 (CI runs the test at -cpu 1,2), and past it
// with an even and an odd segment count, each with a partial last
// segment, sampling on and off.
//
// The keyed walk arms key lines for the whole run, so its set is never
// empty. The sampler walk arms nothing but its samples, each until its
// reuse, as CoolSim's sampler does, so its set empties and the walk skips
// the idle spans: with SampleEvery 0 straight to the walk's end, and
// otherwise to each stop, one of which lands on the first instruction of
// a chunk; the clock carries from walk to walk through idle tails, and
// long walks split with idle stretches on both sides.
func TestRunVDPMatchesReference(t *testing.T) {
	keyed := []vdpCall{
		{0, 100, false}, {1, 7, false}, {workload.Chunk - 1, 0, false}, {workload.Chunk, 100, false},
		{workload.Chunk + 1, 33, false}, {12_345, 1000, false}, {777, 0, false}, {3001, 1, false},
		{40_000, 2500, false}, {5, 3, false}, {workload.Chunk*3 + 17, 0, false}, {20_011, 400, false},
		{vdpSplitMin - 1, 300, false}, {vdpSplitMin, 0, false}, {vdpSplitMin + 1, 700, false},
		{9*vdpSegInstrs + 123, 1200, false}, {9*vdpSegInstrs + 5, 0, false}, // ten segments: the partial one the helper's
		{10*vdpSegInstrs + 4_567, 0, false}, {10*vdpSegInstrs + 99, 40, false}, // eleven: the partial one the caller's
	}
	sampler := []vdpCall{
		{vdpSplitMin + 3_001, 0, false}, {2_000, 0, false}, // SampleEvery 0 with an empty set
		{12_345, 1000, false}, {5_000, 3_000, false}, {7_001, 2_000, false}, {1, 5, false}, {3_333, 700, false},
		{0, 0, true}, {50_000, atChunkStart, false},
		{3*vdpSplitMin + 777, 40_000, false}, {2 * vdpSplitMin, 20_000, false}, {vdpSplitMin + 5, 10_000, false},
		{0, 0, true}, {10*vdpSegInstrs + 99, 4_000, false}, {40_000, 0, false},
		{0, 0, true}, {50_000, atChunkStart, false}, {vdpSplitMin, 900, false},
	}
	for _, prof := range workload.Benchmarks() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			checkVDPCalls(t, prof, keyed, true)
			checkVDPCalls(t, prof, sampler, false)
		})
	}
}

// checkVDPCalls runs calls on a batched engine and on the per-instruction
// oracle side by side, with key lines armed for the whole run when keys
// is set, and compares them after every call.
func checkVDPCalls(t *testing.T, prof *workload.Profile, calls []vdpCall, keys bool) {
	t.Helper()
	ref, bat := NewEngine(prof.NewProgram(64)), NewEngine(prof.NewProgram(64))
	rr := &vdpRecorder{wps: NewWatchpoints(), pending: map[mem.Line]bool{}}
	br := &vdpRecorder{wps: NewWatchpoints(), pending: map[mem.Line]bool{}}
	if keys {
		// Key lines taken from the stream ahead, so triggers and false
		// positives both occur.
		var ahead mem.Batch
		prof.NewProgram(64).FillBatch(50_000, &ahead, nil)
		for i := 0; i < len(ahead); i += len(ahead)/16 + 1 {
			rr.wps.Watch(ahead[i].Line())
			br.wps.Watch(ahead[i].Line())
		}
	}
	for ci, c := range calls {
		if c.clear {
			for _, r := range []*vdpRecorder{rr, br} {
				r.wps.Clear()
				clear(r.pending)
			}
			continue
		}
		every, stopAt := c.every, uint64(0)
		if every == atChunkStart {
			// The first access at least 500 instructions ahead; the
			// clock reaches the interval exactly there.
			var ahead mem.Batch
			peek := prof.NewProgram(64)
			if err := peek.Seek(ref.Prog.Position()); err != nil {
				t.Fatal(err)
			}
			peek.FillBatch(2_000, &ahead, nil)
			start := ref.Prog.InstrIndex()
			for _, a := range ahead {
				if a.InstrIdx >= start+500 {
					stopAt = a.InstrIdx
					break
				}
			}
			every = stopAt - start + ref.sampleCount + 1
		}
		fixed := ci%2 == 1
		ref.Prop, bat.Prop = ci%3 != 0, ci%3 != 0
		n0 := len(br.events)
		ref.refRunVDP(c.span, rr.config(every, fixed))
		bat.RunVDP(c.span, br.config(every, fixed))
		where := fmt.Sprintf("keys %v, call %d (span %d, every %d)", keys, ci, c.span, every)
		if len(br.events) != len(rr.events) {
			t.Fatalf("%s: %d callbacks, want %d", where, len(br.events), len(rr.events))
		}
		for i := range rr.events {
			if br.events[i] != rr.events[i] {
				t.Fatalf("%s: callback %d is %c %+v, want %c %+v", where, i,
					br.events[i].kind, br.events[i].a, rr.events[i].kind, rr.events[i].a)
			}
		}
		if stopAt > 0 && (len(br.events) == n0 || br.events[n0].kind != 'S' || br.events[n0].a.InstrIdx != stopAt) {
			t.Fatalf("%s: the first stop is not at instruction %d", where, stopAt)
		}
		if bat.sampleCount != ref.sampleCount {
			t.Fatalf("%s: sample clock %d, want %d", where, bat.sampleCount, ref.sampleCount)
		}
		if bat.Prog.InstrIndex() != ref.Prog.InstrIndex() || bat.Prog.MemIndex() != ref.Prog.MemIndex() {
			t.Fatalf("%s: program at (%d,%d), want (%d,%d)", where,
				bat.Prog.InstrIndex(), bat.Prog.MemIndex(), ref.Prog.InstrIndex(), ref.Prog.MemIndex())
		}
	}
	if n := len(rr.events); n < 100 {
		t.Fatalf("keys %v: only %d callbacks delivered; the run exercises too little", keys, n)
	}
	if !reflect.DeepEqual(bat.Counters, ref.Counters) {
		t.Fatalf("keys %v: ledger differs:\nbatched:\n%s\nreference:\n%s", keys, bat.Counters, ref.Counters)
	}
	if !slices.Equal(watchedLines(br.wps), watchedLines(rr.wps)) {
		t.Fatalf("keys %v: watchpoint sets diverged", keys)
	}
	for i := 0; i < 1000; i++ {
		var a, b workload.Instr
		ref.Prog.Next(&a)
		bat.Prog.Next(&b)
		if a != b {
			t.Fatalf("keys %v: continuation instruction %d is %+v, want %+v", keys, i, b, a)
		}
	}
}

// TestSplitVDPWalkPanics: a callback that panics in the middle of a split
// walk — OnSample in a segment the helper decoded, OnTrigger in one the
// caller decoded — re-panics from RunVDP with the same value, leaves no
// goroutine behind, and leaves an engine whose next walks, split and
// serial, match the per-instruction oracle from wherever the panic left
// its program and sample clock.
func TestSplitVDPWalkPanics(t *testing.T) {
	prof := workload.Mcf()
	const scale = 64
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		arm  func(cfg *VDPConfig, at uint64)
	}{
		{"OnSample", func(cfg *VDPConfig, at uint64) {
			inner := cfg.OnSample
			cfg.OnSample = func(a *mem.Access) {
				if a.InstrIdx >= at+3*vdpSegInstrs/2 { // segment 1
					panic(boom)
				}
				inner(a)
			}
		}},
		{"OnTrigger", func(cfg *VDPConfig, at uint64) {
			inner := cfg.OnTrigger
			cfg.OnTrigger = func(a *mem.Access) {
				if a.InstrIdx >= at+5*vdpSegInstrs/2 { // segment 2
					panic(boom)
				}
				inner(a)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			eng := NewEngine(prof.NewProgram(scale))
			eng.Prog.Skip(5_000)
			rec := &vdpRecorder{wps: NewWatchpoints(), pending: map[mem.Line]bool{}}
			cfg := rec.config(150, false)
			tc.arm(cfg, eng.Prog.InstrIndex())
			func() {
				defer func() {
					if r := recover(); r != boom {
						t.Fatalf("RunVDP panicked with %v", r)
					}
				}()
				eng.RunVDP(2*vdpSplitMin, cfg)
				t.Fatal("RunVDP returned from a panicking walk")
			}()
			for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the panic, %d before", runtime.NumGoroutine(), base)
				}
			}

			ref := NewEngine(prof.NewProgram(scale))
			if err := ref.Prog.Seek(eng.Prog.Position()); err != nil {
				t.Fatal(err)
			}
			ref.sampleCount = eng.sampleCount
			rr := &vdpRecorder{wps: NewWatchpoints(), pending: map[mem.Line]bool{}}
			br := &vdpRecorder{wps: NewWatchpoints(), pending: map[mem.Line]bool{}}
			for _, l := range watchedLines(rec.wps) {
				rr.wps.Watch(l)
				br.wps.Watch(l)
			}
			for _, n := range []uint64{vdpSplitMin + 1_001, 2_001} {
				ref.refRunVDP(n, rr.config(150, false))
				eng.RunVDP(n, br.config(150, false))
				if !reflect.DeepEqual(br.events, rr.events) || eng.sampleCount != ref.sampleCount ||
					!reflect.DeepEqual(eng.Prog.Position(), ref.Prog.Position()) {
					t.Fatalf("walk of %d after the panic: %d callbacks, clock %d; oracle %d callbacks, clock %d",
						n, len(br.events), eng.sampleCount, len(rr.events), ref.sampleCount)
				}
			}
		})
	}
}

// TestSplitVDPWalksConcurrent: split walks on three engines at once, the
// shape of a saturated worker pool, share the ring pool, and each still
// delivers the per-instruction oracle's callbacks, sample clock and ledger
// and ends at its program position.
func TestSplitVDPWalksConcurrent(t *testing.T) {
	profs := []*workload.Profile{workload.Mcf(), workload.Calculix(), workload.Bwaves()}
	spans := []uint64{vdpSplitMin + 7_777, 3 * vdpSplitMin, 2_000}
	type side struct {
		eng *Engine
		rec *vdpRecorder
	}
	run := func(prof *workload.Profile, oracle bool) side {
		s := side{NewEngine(prof.NewProgram(64)), &vdpRecorder{wps: NewWatchpoints(), pending: map[mem.Line]bool{}}}
		for _, n := range spans {
			if oracle {
				s.eng.refRunVDP(n, s.rec.config(90, false))
			} else {
				s.eng.RunVDP(n, s.rec.config(90, false))
			}
		}
		return s
	}
	got := make([]side, len(profs))
	var wg sync.WaitGroup
	for i, prof := range profs {
		wg.Add(1)
		go func(i int, prof *workload.Profile) {
			defer wg.Done()
			got[i] = run(prof, false)
		}(i, prof)
	}
	wg.Wait()
	for i, prof := range profs {
		want := run(prof, true)
		if !reflect.DeepEqual(got[i].rec.events, want.rec.events) || got[i].eng.sampleCount != want.eng.sampleCount ||
			!reflect.DeepEqual(got[i].eng.Counters, want.eng.Counters) ||
			!reflect.DeepEqual(got[i].eng.Prog.Position(), want.eng.Prog.Position()) {
			t.Errorf("%s: concurrent split walks differ from the oracle (%d callbacks, want %d)",
				prof.Name, len(got[i].rec.events), len(want.rec.events))
		}
	}
}

// TestSplitVDPWalkAllocs: a split walk on an engine that has walked before
// allocates a small constant per call — the helper's start and the
// ledger's counter names — and nothing per segment, so a walk eight times
// longer allocates no more.
func TestSplitVDPWalkAllocs(t *testing.T) {
	prof := workload.Mcf()
	eng := NewEngine(prof.NewProgram(256))
	wps := NewWatchpoints()
	var ahead mem.Batch
	prof.NewProgram(256).FillBatch(10_000, &ahead, nil)
	for i := 0; i < len(ahead); i += 97 {
		wps.Watch(ahead[i].Line())
	}
	var calls int
	cfg := &VDPConfig{WPs: wps, SampleEvery: 500,
		OnSample:  func(a *mem.Access) { calls++ },
		OnTrigger: func(a *mem.Access) { calls++ }}
	var allocs [2]float64
	for i, n := range []uint64{vdpSplitMin, 8 * vdpSplitMin} {
		allocs[i] = testing.AllocsPerRun(5, func() { eng.RunVDP(n, cfg) })
	}
	if allocs[0] > 8 || allocs[1] > allocs[0] {
		t.Fatalf("allocations per call: %v for %d and %d instructions; want at most 8, not growing with the walk",
			allocs, vdpSplitMin, 8*vdpSplitMin)
	}
	if calls == 0 {
		t.Fatal("no callback delivered")
	}
}

// TestSplitVDPHelperJoinsLate: a helper held back until the caller has
// passed three odd segments, which the caller takes and decodes itself,
// still decodes later odd segments once it runs, and the walk matches the
// per-instruction oracle. Without a second P nothing splits, so there is
// nothing to hold back.
func TestSplitVDPHelperJoinsLate(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("a walk splits only when GOMAXPROCS > 1")
	}
	defer func() { holdHelper = nil }()
	holdHelper = func(r *ring) {
		for c := r.claim.Load(); c >= 0 && c < 7; c = r.claim.Load() {
			runtime.Gosched()
		}
	}
	prof := workload.Mcf()
	ref, bat := NewEngine(prof.NewProgram(64)), NewEngine(prof.NewProgram(64))
	rr := &vdpRecorder{wps: NewWatchpoints(), pending: map[mem.Line]bool{}}
	br := &vdpRecorder{wps: NewWatchpoints(), pending: map[mem.Line]bool{}}
	// Key lines armed for the whole walk: the caller decodes every segment
	// it takes, so the helper, once it runs, catches up.
	var ahead mem.Batch
	prof.NewProgram(64).FillBatch(50_000, &ahead, nil)
	for i := 0; i < len(ahead); i += 97 {
		rr.wps.Watch(ahead[i].Line())
		br.wps.Watch(ahead[i].Line())
	}
	const n = 4 * vdpSplitMin
	ref.refRunVDP(n, rr.config(500, false))
	bat.RunVDP(n, br.config(500, false))
	if !reflect.DeepEqual(br.events, rr.events) || bat.sampleCount != ref.sampleCount ||
		!reflect.DeepEqual(bat.Counters, ref.Counters) || !reflect.DeepEqual(bat.Prog.Position(), ref.Prog.Position()) {
		t.Fatalf("late-helper walk differs from the oracle: %d callbacks, clock %d; oracle %d callbacks, clock %d",
			len(br.events), bat.sampleCount, len(rr.events), ref.sampleCount)
	}
	if bat.helped == 0 {
		t.Fatalf("the helper decoded none of the %d odd segments after the first three", n/vdpSegInstrs/2-3)
	}
}

// TestSkipConcurrent: long Skips through vm.Skip on several programs at
// once, more than the ring pool has helpers for, so some count on two
// CPUs and some serial, each end where a serial Skip puts its twin, and
// leave no goroutine behind.
func TestSkipConcurrent(t *testing.T) {
	base := runtime.NumGoroutine()
	profs := []*workload.Profile{workload.Mcf(), workload.Calculix(), workload.Bwaves(), workload.Leslie3d()}
	spans := []uint64{skipSplitMin, 3*skipSplitMin + 12_345, 777, skipSplitMin - 1, 2*skipSplitMin + 1}
	got := make([]workload.Position, len(profs))
	var wg sync.WaitGroup
	for i, prof := range profs {
		wg.Add(1)
		go func(i int, prof *workload.Profile) {
			defer wg.Done()
			prog := prof.NewProgram(64)
			for _, n := range spans {
				Skip(prog, n)
			}
			got[i] = prog.Position()
		}(i, prof)
	}
	wg.Wait()
	for i, prof := range profs {
		prog := prof.NewProgram(64)
		for _, n := range spans {
			prog.Skip(n)
		}
		if want := prog.Position(); !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s: concurrent Skips end at\n%+v\nserial Skips at\n%+v", prof.Name, got[i], want)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the Skips, %d before", runtime.NumGoroutine(), base)
		}
	}
}
