package perf

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/reuse"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestScenariosRun smoke-tests every scenario in quick mode: setup plus
// one repetition must drive a nonzero number of accesses.
func TestScenariosRun(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario steps are sized for benchmarking, not -short")
	}
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			step, cleanup := s.Setup(true)
			if cleanup != nil {
				defer cleanup()
			}
			if n := step(); n == 0 {
				t.Fatalf("scenario %s drove 0 accesses", s.Name)
			}
		})
	}
}

// TestPipelineSteadyStateZeroAllocs is the headline allocation-regression
// gate: the full batched trace→hierarchy→monitor→histogram pipeline, in
// steady state, performs zero heap allocations per access. The profile's
// footprint is small enough that the warm-up pass certainly covers it, so
// the measured windows cannot grow the monitor table.
func TestPipelineSteadyStateZeroAllocs(t *testing.T) {
	prof := &workload.Profile{
		Name: "tiny", MemRatio: 0.4, BranchRatio: 0.1, FPFrac: 0.3,
		LoopDuty: 16, ILP: 4, CodeKiB: 8, Seed: 11,
		Streams: []workload.StreamSpec{
			{Kind: workload.Seq, Weight: 0.4, PaperBytes: 2 << 20, PCs: 8, WriteFrac: 0.4, Burst: 3},
			{Kind: workload.Rand, Weight: 0.3, PaperBytes: 1 << 20, PCs: 8, WriteFrac: 0.2},
			{Kind: workload.Chase, Weight: 0.3, PaperBytes: 1 << 20, PCs: 4},
		},
	}
	const chunk = 4096
	prog := prof.NewProgram(64)
	hier := cache.NewHierarchy(cache.DefaultHierarchy(8<<20, 64), nil)
	mon := reuse.NewExactMonitor()
	hist := &stats.RDHist{}
	batch := make(mem.Batch, 0, chunk)
	results := make([]cache.DataResult, 0, chunk)
	window := func() {
		batch.Reset()
		prog.FillBatch(chunk, &batch, nil)
		results = hier.AccessBatch(batch, results[:0])
		mon.ObserveHist(batch, hist, 0)
	}
	// Cover the footprint so the monitor table reaches steady-state size.
	for i := 0; i < 300; i++ {
		window()
	}
	if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
		t.Fatalf("steady-state pipeline allocated %.3f times per window (want 0)", allocs)
	}
}

// TestReportRoundTripAndCompare covers the JSON persistence and the CI
// regression gate.
func TestReportRoundTripAndCompare(t *testing.T) {
	ref := &Report{Schema: Schema, Scenarios: []Measurement{
		{Scenario: "a", NsPerAccess: 100},
		{Scenario: "b", NsPerAccess: 50},
	}}
	path := filepath.Join(t.TempDir(), "ref.json")
	if err := ref.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Schema != Schema || len(loaded.Scenarios) != 2 {
		t.Fatalf("round trip lost data: %+v", loaded)
	}

	cur := &Report{Scenarios: []Measurement{
		{Scenario: "a", NsPerAccess: 115}, // +15%: within a 20% budget
		{Scenario: "b", NsPerAccess: 70},  // +40%: regression
		{Scenario: "c", NsPerAccess: 1},   // not in ref: skipped
	}}
	regs := Compare(loaded, cur, 0.20)
	if len(regs) != 1 || regs[0].Scenario != "b" {
		t.Fatalf("Compare found %v, want exactly scenario b", regs)
	}
	if len(Compare(loaded, cur, 0.50)) != 0 {
		t.Fatal("50%% budget should pass")
	}
}

// TestRunProducesMeasurement exercises the measurement loop on a trivial
// scenario, with and without a per-scenario CPU profile.
func TestRunProducesMeasurement(t *testing.T) {
	s := Scenario{
		Name:  "unit",
		Setup: func(bool) (func() uint64, func()) { return func() uint64 { return 1000 }, nil },
	}
	dir := filepath.Join(t.TempDir(), "prof")
	for _, profileDir := range []string{"", dir} {
		rep, err := RunAll([]Scenario{s}, true, time.Millisecond, profileDir)
		if err != nil {
			t.Fatal(err)
		}
		if m := rep.Scenarios[0]; m.Reps < 2 || m.Accesses < 2000 || m.NsPerAccess <= 0 {
			t.Fatalf("implausible measurement: %+v", m)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "unit.pprof")); err != nil {
		t.Fatalf("no CPU profile written: %v", err)
	}
}
