package vm

import (
	"fmt"
	"reflect"
	"testing"

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
// between calls (0 included), as CoolSim's schedule segments do.
func TestRunVDPMatchesReference(t *testing.T) {
	calls := []struct{ span, every uint64 }{
		{0, 100}, {1, 7}, {workload.Chunk - 1, 0}, {workload.Chunk, 100}, {workload.Chunk + 1, 33},
		{12_345, 1000}, {777, 0}, {3001, 1}, {40_000, 2500}, {5, 3},
		{workload.Chunk*3 + 17, 0}, {20_011, 400},
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
