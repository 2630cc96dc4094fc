package vm

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/workload"
)

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

// TestRunVDPMatchesReference pins the batched RunVDP to the
// per-instruction oracle over every benchmark: the same ordered callbacks,
// ledger, program state and sample clock, over back-to-back calls whose
// spans straddle chunk boundaries and whose sampling intervals change
// between calls (0 included), as CoolSim's schedule segments do. The
// longer spans sit one below, at and one above vdpSplitMin, where a walk
// splits when GOMAXPROCS > 1 (CI runs the test at -cpu 1,2), and past it
// with an even and an odd segment count, each with a partial last
// segment, sampling on and off.
func TestRunVDPMatchesReference(t *testing.T) {
	calls := []struct{ span, every uint64 }{
		{0, 100}, {1, 7}, {workload.Chunk - 1, 0}, {workload.Chunk, 100}, {workload.Chunk + 1, 33},
		{12_345, 1000}, {777, 0}, {3001, 1}, {40_000, 2500}, {5, 3},
		{workload.Chunk*3 + 17, 0}, {20_011, 400},
		{vdpSplitMin - 1, 300}, {vdpSplitMin, 0}, {vdpSplitMin + 1, 700},
		{9*vdpSegInstrs + 123, 1200}, {9*vdpSegInstrs + 5, 0}, // ten segments: the partial one the helper's
		{10*vdpSegInstrs + 4_567, 0}, {10*vdpSegInstrs + 99, 40}, // eleven: the partial one the caller's
	}
	for _, prof := range workload.Benchmarks() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			ref, bat := NewEngine(prof.NewProgram(64)), NewEngine(prof.NewProgram(64))
			rr := &vdpRecorder{wps: NewWatchpoints(), pending: map[mem.Line]bool{}}
			br := &vdpRecorder{wps: NewWatchpoints(), pending: map[mem.Line]bool{}}
			// Key lines armed for the whole run, taken from the stream
			// ahead, so triggers and false positives both occur.
			var ahead mem.Batch
			prof.NewProgram(64).FillBatch(50_000, &ahead, nil)
			for i := 0; i < len(ahead); i += len(ahead)/16 + 1 {
				rr.wps.Watch(ahead[i].Line())
				br.wps.Watch(ahead[i].Line())
			}
			for ci, c := range calls {
				fixed := ci%2 == 1
				ref.Prop, bat.Prop = ci%3 != 0, ci%3 != 0
				ref.refRunVDP(c.span, rr.config(c.every, fixed))
				bat.RunVDP(c.span, br.config(c.every, fixed))
				where := fmt.Sprintf("call %d (span %d, every %d)", ci, c.span, c.every)
				if len(br.events) != len(rr.events) {
					t.Fatalf("%s: %d callbacks, want %d", where, len(br.events), len(rr.events))
				}
				for i := range rr.events {
					if br.events[i] != rr.events[i] {
						t.Fatalf("%s: callback %d is %c %+v, want %c %+v", where, i,
							br.events[i].kind, br.events[i].a, rr.events[i].kind, rr.events[i].a)
					}
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
				t.Fatalf("only %d callbacks delivered; the run exercises too little", n)
			}
			if !reflect.DeepEqual(bat.Counters, ref.Counters) {
				t.Fatalf("ledger differs:\nbatched:\n%s\nreference:\n%s", bat.Counters, ref.Counters)
			}
			if !reflect.DeepEqual(br.wps.State(), rr.wps.State()) {
				t.Fatal("watchpoint sets diverged")
			}
			for i := 0; i < 1000; i++ {
				var a, b workload.Instr
				ref.Prog.Next(&a)
				bat.Prog.Next(&b)
				if a != b {
					t.Fatalf("continuation instruction %d is %+v, want %+v", i, b, a)
				}
			}
		})
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
			rr.wps.SetState(rec.wps.State())
			br.wps.SetState(rec.wps.State())
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
