package vm

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/workload"
)

// refRunFuncWarm is the per-instruction functional-warming loop that
// builds every instruction through Program.Next, kept as the reference
// oracle for RunFuncWarm: each instruction's fetch, then its data access
// or its branch. It returns how often the code walk wrapped.
func (e *Engine) refRunFuncWarm(n uint64, cacheSim bool, w *Warming) (wraps int) {
	var ins workload.Instr
	var last mem.Line
	for i := uint64(0); i < n; i++ {
		a := mem.Access{MemIdx: e.Prog.MemIndex(), InstrIdx: e.Prog.InstrIndex()}
		e.Prog.Next(&ins)
		if ins.FetchLine < last {
			wraps++
		}
		last = ins.FetchLine
		w.Hier.WarmInstr(ins.FetchLine)
		switch ins.Kind {
		case workload.KindLoad, workload.KindStore:
			a.PC, a.Addr, a.Write = ins.PC, ins.Addr, ins.Kind == workload.KindStore
			if w.OnData != nil {
				w.OnData(&a)
			} else {
				w.Hier.WarmData(a.Line())
			}
		case workload.KindBranch:
			if w.BP != nil {
				w.BP.PredictAndUpdate(ins.PC, ins.Taken)
			}
		}
	}
	if cacheSim {
		e.charge(KindFuncCache, float64(n))
	} else {
		e.charge(KindFunc, float64(n))
	}
	return wraps
}

// probeEvent is what the Scout-style hook saw at one data access.
type probeEvent struct {
	a          mem.Access
	l1d, llcIn bool
}

// warmSide is one side of the comparison: an engine and what it warms,
// either SMARTS-style (predictor on, plain WarmData) or Scout-style (a
// probe-before-warm data hook, no predictor).
type warmSide struct {
	eng    *Engine
	w      *Warming
	events []probeEvent
}

func newWarmSide(tb testing.TB, prof *workload.Profile, scale uint64, start workload.Position, scout bool) *warmSide {
	s := &warmSide{eng: NewEngine(prof.NewProgram(scale))}
	if err := s.eng.Prog.Seek(start); err != nil {
		tb.Fatal(err)
	}
	h := cache.NewHierarchy(cache.DefaultHierarchy(scale<<18, scale), nil) // 256 KiB LLC
	s.w = &Warming{Hier: h}
	if !scout {
		s.w.BP = cpu.NewBranchPred(cpu.DefaultBPConfig())
		return s
	}
	s.w.OnData = func(a *mem.Access) {
		l := a.Line()
		s.events = append(s.events, probeEvent{a: *a, l1d: h.L1D.Probe(l), llcIn: h.LLC.Probe(l)})
		h.WarmData(l)
	}
	return s
}

// phasedProfile switches a stream on and off every 300 instructions at
// the given scale, so the passes cross phase edges (where the block loop
// cuts its blocks) many times.
func phasedProfile(scale uint64) *workload.Profile {
	return &workload.Profile{
		Name: "phased", MemRatio: 0.35, BranchRatio: 0.15, FPFrac: 0.2,
		LoopDuty: 6, RandomBranchFrac: 0.2, ILP: 3, CodeKiB: 32, Seed: 5,
		Streams: []workload.StreamSpec{
			{Kind: workload.Seq, Weight: 0.5, PaperBytes: 1 << 20, PCs: 4, Burst: 3},
			{Kind: workload.Rand, Weight: 0.5, PaperBytes: 4 << 20, PCs: 4, WriteFrac: 0.3,
				PhasePeriod: 600 * scale, PhaseDuty: 0.5},
		},
	}
}

// TestFunctionalWarmMatchesPerInstruction pins RunFuncWarm to the
// per-instruction oracle on every benchmark and a phase-gated profile,
// SMARTS-style and Scout-style. Each pass starts after a Seek to the
// middle of a fetch line, runs n instructions and then a continuation, so
// fetch-line runs, chunks and blocks are cut everywhere. At scale 256
// every code walk is at most ~100 instructions long and wraps at once;
// at scale 1 the larger code footprints overflow the L1I, so I-side
// misses keep reaching the LLC between the data accesses, and 30 000
// instructions still wrap every walk. The longest lengths sit one below,
// at and one above pipeMinInstrs, where the walk turns pipelined, and past
// it by three hand-offs and a partial one, which wraps the hand-off ring.
// After each call the whole hierarchy state, the predictor, the program
// position, the ledger and the hook's ordered probe results must be
// identical.
func TestFunctionalWarmMatchesPerInstruction(t *testing.T) {
	ns := []uint64{0, 1, 7, 8, 9, 255, 256, 257, 30_000,
		pipeMinInstrs - 1, pipeMinInstrs, pipeMinInstrs + 1, pipeMinInstrs + 3*handoffInstrs + 1_001}
	for _, scale := range []uint64{256, 1} {
		for _, prof := range append(workload.Benchmarks(), phasedProfile(scale)) {
			t.Run(fmt.Sprintf("%s/scale%d", prof.Name, scale), func(t *testing.T) {
				testFunctionalWarm(t, prof, scale, ns)
			})
		}
	}
}

func testFunctionalWarm(t *testing.T, prof *workload.Profile, scale uint64, ns []uint64) {
	tracker := prof.NewProgram(scale)
	tracker.Skip(12_345)
	for tracker.Position().CodePos&7 == 7 { // next fetch would open a line
		tracker.Skip(1)
	}
	start := tracker.Position()
	for _, n := range ns {
		for _, scout := range []bool{false, true} {
			ref := newWarmSide(t, prof, scale, start, scout)
			got := newWarmSide(t, prof, scale, start, scout)
			for ci, span := range []uint64{n, 1_001} {
				where := fmt.Sprintf("n=%d scout=%v call %d", n, scout, ci)
				cacheSim := !scout
				ref.eng.Prop, got.eng.Prop = ci == 0, ci == 0
				wraps := ref.eng.refRunFuncWarm(span, cacheSim, ref.w)
				got.eng.RunFuncWarm(span, cacheSim, got.w)
				if span >= 30_000 && wraps == 0 {
					t.Fatalf("%s: the code walk never wrapped", where)
				}
				requireWarmEqual(t, where, got, ref)
			}
			if scale == 1 && n == 30_000 && ref.w.Hier.L1I.NMisses < 100 {
				t.Fatalf("n=%d scout=%v: only %d L1I misses; the I-side never reaches the LLC", n, scout, ref.w.Hier.L1I.NMisses)
			}
		}
	}
}

func requireWarmEqual(t *testing.T, where string, got, ref *warmSide) {
	t.Helper()
	if !reflect.DeepEqual(got.w.Hier.State(true), ref.w.Hier.State(true)) {
		t.Fatalf("%s: hierarchy state differs (L1I hits %d/%d, L1D %d/%d, LLC %d/%d)", where,
			got.w.Hier.L1I.NHits, ref.w.Hier.L1I.NHits, got.w.Hier.L1D.NHits, ref.w.Hier.L1D.NHits,
			got.w.Hier.LLC.NHits, ref.w.Hier.LLC.NHits)
	}
	if !reflect.DeepEqual(got.w.BP, ref.w.BP) {
		t.Fatalf("%s: branch predictor differs", where)
	}
	if !reflect.DeepEqual(got.eng.Prog.Position(), ref.eng.Prog.Position()) {
		t.Fatalf("%s: program at %+v, want %+v", where, got.eng.Prog.Position(), ref.eng.Prog.Position())
	}
	if !reflect.DeepEqual(got.eng.Counters, ref.eng.Counters) {
		t.Fatalf("%s: ledger differs:\n%s\nwant:\n%s", where, got.eng.Counters, ref.eng.Counters)
	}
	if !reflect.DeepEqual(got.events, ref.events) {
		t.Fatalf("%s: %d hook events differ from the reference's %d", where, len(got.events), len(ref.events))
	}
}

// BenchmarkFunctionalWarm measures SMARTS-style functional warming
// (hierarchy and predictor) per instruction, against the per-instruction
// reference loop. At 100 000 instructions the walk is pipelined.
func BenchmarkFunctionalWarm(b *testing.B) {
	const n = 100_000
	for _, prof := range []*workload.Profile{workload.Mcf(), workload.Omnetpp(), workload.Bwaves()} {
		for _, impl := range []string{"chunked", "reference"} {
			b.Run(prof.Name+"/"+impl, func(b *testing.B) {
				s := newWarmSide(b, prof, 256, prof.NewProgram(256).Position(), false)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if impl == "chunked" {
						s.eng.RunFuncWarm(n, true, s.w)
					} else {
						s.eng.refRunFuncWarm(n, true, s.w)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/instr")
			})
		}
	}
}
