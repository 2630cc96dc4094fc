package vm

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/workload"
)

func testProg() *workload.Program {
	p := &workload.Profile{
		Name: "vmtest", MemRatio: 0.4, BranchRatio: 0.1, LoopDuty: 8,
		ILP: 4, CodeKiB: 4, Seed: 42,
		Streams: []workload.StreamSpec{
			{Kind: workload.Seq, Weight: 0.5, PaperBytes: 1 << 16},
			{Kind: workload.Rand, Weight: 0.5, PaperBytes: 1 << 20},
		},
	}
	return p.NewProgram(1)
}

func testHier() *cache.Hierarchy {
	return cache.NewHierarchy(cache.DefaultHierarchy(8<<20, 64), nil)
}

func TestWatchpoints(t *testing.T) {
	w := NewWatchpoints()
	l := mem.Line(100) // page 1
	w.Watch(l)
	if !w.WatchedLine(l) || !w.WatchedPage(mem.PageOfLine(l)) {
		t.Fatal("watch not visible")
	}
	if w.WatchedLine(l + 1) {
		t.Fatal("neighbouring line must not be watched")
	}
	if !w.WatchedPage(mem.PageOfLine(l + 1)) {
		t.Fatal("neighbouring line in same page must trigger the page")
	}
	w.Watch(l) // idempotent
	if w.Count() != 1 {
		t.Fatalf("Count = %d, want 1", w.Count())
	}
	w.Unwatch(l)
	if w.WatchedLine(l) || w.WatchedPage(mem.PageOfLine(l)) || w.Count() != 0 {
		t.Fatal("unwatch incomplete")
	}
	w.Unwatch(l) // no-op
	w.Watch(1)
	w.Watch(2)
	w.Clear()
	if w.Count() != 0 {
		t.Fatal("Clear incomplete")
	}
}

// posAt returns testProg's position after n instructions: the checkpoint
// a tracker program would capture there.
func posAt(n uint64) workload.Position {
	p := testProg()
	p.Skip(n)
	return p.Position()
}

func seekTo(t *testing.T, e *Engine, pos workload.Position) {
	t.Helper()
	if err := e.SeekTo(pos); err != nil {
		t.Fatal(err)
	}
}

func TestSeekToMatchesFunctional(t *testing.T) {
	// VFF must leave the program in exactly the same state as observing it.
	a, b := NewEngine(testProg()), NewEngine(testProg())
	seekTo(t, a, posAt(5000))
	b.RunFuncWarm(5000, false, &Warming{Hier: testHier()})
	if !reflect.DeepEqual(a.Prog.Position(), b.Prog.Position()) {
		t.Fatal("VFF and functional execution diverged")
	}
	for i := 0; i < 1000; i++ {
		var ia, ib workload.Instr
		a.Prog.Next(&ia)
		b.Prog.Next(&ib)
		if ia != ib {
			t.Fatalf("streams diverged %d instructions after VFF", i)
		}
	}
}

func TestSeekToPanicsOnPast(t *testing.T) {
	e := NewEngine(testProg())
	seekTo(t, e, posAt(100))
	defer func() {
		if recover() == nil {
			t.Error("expected panic on backwards seek")
		}
	}()
	_ = e.SeekTo(posAt(50))
}

func TestLedgerCharging(t *testing.T) {
	e := NewEngine(testProg())
	seekTo(t, e, posAt(600))
	var b mem.Batch
	e.RunFuncBatch(500, false, &b)
	// A seek from mid-stream charges only the span it skips.
	seekTo(t, e, posAt(1500))
	e.RunFuncWarm(500, true, &Warming{Hier: testHier()})
	e.Prop = false
	e.ChargeDetail(100)
	c := e.Counters
	if c.Get("win/"+KindVFF) != 1000 || c.Get("win/"+KindFunc) != 500 ||
		c.Get("win/"+KindFuncCache) != 500 || c.Get("fix/"+KindDetail) != 100 {
		t.Fatalf("ledger wrong:\n%s", c)
	}
	cm := DefaultCostModel()
	want := 1000/(cm.VFFMIPS*1e6) + 500/(cm.FuncMIPS*1e6) +
		500/(cm.FuncCacheMIPS*1e6) + 100/(cm.DetailMIPS*1e6)
	if got := cm.Seconds(c); math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("Seconds = %g, want %g", got, want)
	}
}

func TestVDPTriggersAndFalsePositives(t *testing.T) {
	e := NewEngine(testProg())
	// Find an address the program will touch: observe a prefix functionally
	// on a second instance.
	var prefix mem.Batch
	testProg().FillBatch(2000, &prefix, nil)
	if len(prefix) == 0 {
		t.Fatal("no access found in prefix")
	}
	target := prefix[0].Line()
	wps := NewWatchpoints()
	wps.Watch(target)
	var hits int
	e.RunVDP(20000, &VDPConfig{
		WPs: wps,
		OnTrigger: func(a *mem.Access) {
			if a.Line() != target {
				t.Fatalf("trigger delivered wrong line %d", a.Line())
			}
			hits++
		},
	})
	c := e.Counters
	if hits == 0 {
		t.Fatal("watched line never triggered")
	}
	trig := c.Get("win/" + KindTrigger)
	fp := c.Get("win/" + KindTriggerFP)
	if trig != float64(hits)+fp {
		t.Fatalf("triggers %v != true %d + false %v", trig, hits, fp)
	}
	if fp == 0 {
		t.Error("page-granularity watchpoints should produce false positives on a sequential stream")
	}
}

func TestVDPSampling(t *testing.T) {
	e := NewEngine(testProg())
	var samples []uint64
	e.RunVDP(30000, &VDPConfig{
		SampleEvery: 100,
		OnSample:    func(a *mem.Access) { samples = append(samples, a.InstrIdx) },
	})
	// Intervals count instructions and the stop lands on the next memory
	// access, so the period is at least SampleEvery: at most 300 samples,
	// and close to it for a memory-dense program.
	if len(samples) > 300 || len(samples) < 250 {
		t.Fatalf("samples = %d, want ~250-300", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if d := samples[i] - samples[i-1]; d < 100 {
			t.Fatalf("sample spacing %d instructions, want >= 100", d)
		}
	}
	if got := e.Counters.Get("win/" + KindSampleStop); got != float64(len(samples)) {
		t.Fatalf("sample stops charged %v, want %d", got, len(samples))
	}
}

func TestVDPDoesNotPerturbTimeline(t *testing.T) {
	// Running under VDP must visit exactly the same accesses as functional
	// execution (watchpoints observe, never alter).
	var funcTrace []mem.Addr
	pf := NewEngine(testProg())
	h := testHier()
	pf.refRunFuncWarm(10000, false, &Warming{Hier: h, OnData: func(a *mem.Access) {
		funcTrace = append(funcTrace, a.Addr)
		h.WarmData(a.Line())
	}})
	pv := NewEngine(testProg())
	wps := NewWatchpoints()
	for _, ad := range funcTrace[:50] {
		wps.Watch(mem.LineOf(ad))
	}
	var got []mem.Addr
	pv.RunVDP(10000, &VDPConfig{
		WPs:       wps,
		OnTrigger: func(a *mem.Access) { got = append(got, a.Addr) },
	})
	if pv.Prog.MemIndex() != pf.Prog.MemIndex() {
		t.Fatal("VDP perturbed the memory-access count")
	}
	// Every trigger must correspond to a real access in the trace order.
	j := 0
	for _, ad := range funcTrace {
		if j < len(got) && got[j] == ad {
			j++
		}
	}
	if j != len(got) {
		t.Fatalf("trigger trace not a subsequence of the functional trace (%d/%d)", j, len(got))
	}
}

func TestCountersScaleExtrapolation(t *testing.T) {
	c := stats.NewCounters()
	c.Add("win/"+KindVFF, 100)
	c.Add("fix/"+KindDetail, 10)
	c.Scale("win/", 64)
	if c.Get("win/"+KindVFF) != 6400 || c.Get("fix/"+KindDetail) != 10 {
		t.Fatal("paper-scale extrapolation must scale only win/ counters")
	}
}
