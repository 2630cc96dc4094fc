package core

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/mem"
	"repro/internal/reuse"
	"repro/internal/warm"
	"repro/internal/workload"
)

// testConfig returns a small, fast configuration: 3 regions, 1M-instruction
// gap at scale 1, so every Explorer window is exercised.
func testConfig() warm.Config {
	cfg := warm.DefaultConfig()
	cfg.Regions = 3
	cfg.PaperGap = 1_000_000
	cfg.Scale = 1
	cfg.LLCPaperBytes = 256 * 1024
	cfg.VicinityEvery = 5_000
	return cfg
}

// testProfile spreads reuses across all Explorer windows at the test gap.
func testProfile() *workload.Profile {
	return &workload.Profile{
		Name: "core-test", MemRatio: 0.4, BranchRatio: 0.1, FPFrac: 0.1,
		LoopDuty: 16, RandomBranchFrac: 0.05, ILP: 4, CodeKiB: 8, Seed: 77,
		Streams: []workload.StreamSpec{
			{Kind: workload.Rand, Weight: 0.55, PaperBytes: 2 * 1024, PCs: 8, WriteFrac: 0.3},         // hot
			{Kind: workload.Seq, Weight: 0.25, PaperBytes: 64 * 1024, PCs: 4, WriteFrac: 0.4},         // ~E1
			{Kind: workload.Rand, Weight: 0.15, PaperBytes: 512 * 1024, PCs: 4, WriteFrac: 0.2},       // ~E2/E3
			{Kind: workload.Chase, Weight: 0.05, PaperBytes: 2 * 1024 * 1024, PCs: 2, WriteFrac: 0.1}, // ~E4
		},
	}
}

// stepFunc executes n instructions of prog one Next at a time, handing h
// each instruction with its access record (nil for non-memory
// instructions). It is the per-instruction loop the batched passes are
// pinned against.
func stepFunc(prog *workload.Program, n uint64, h func(ins *workload.Instr, a *mem.Access)) {
	var ins workload.Instr
	for i := uint64(0); i < n; i++ {
		a := mem.Access{MemIdx: prog.MemIndex(), InstrIdx: prog.InstrIndex()}
		prog.Next(&ins)
		if ins.Kind != workload.KindLoad && ins.Kind != workload.KindStore {
			h(&ins, nil)
			continue
		}
		a.PC, a.Addr, a.Write = ins.PC, ins.Addr, ins.Kind == workload.KindStore
		h(&ins, &a)
	}
}

// groundTruth computes, for every region, the exact backward reuse
// distance of each line's first in-region access, by replaying the whole
// span with an exact monitor. It also returns the memory-access index at
// each region start, which bounds the largest Explorer window.
func groundTruth(prof *workload.Profile, cfg warm.Config) ([]map[mem.Line]uint64, []uint64) {
	prog := prof.NewProgram(cfg.Scale)
	mon := reuse.NewExactMonitor()
	out := make([]map[mem.Line]uint64, cfg.Regions)
	memAtStart := make([]uint64, cfg.Regions)
	const never = ^uint64(0)
	for m := 0; m < cfg.Regions; m++ {
		start := cfg.RegionStart(m)
		stepFunc(prog, start-prog.InstrIndex(), func(ins *workload.Instr, a *mem.Access) {
			if a != nil {
				mon.ObserveLine(a.Line(), a.MemIdx)
			}
		})
		memAtStart[m] = prog.MemIndex()
		dists := make(map[mem.Line]uint64)
		stepFunc(prog, cfg.RegionLen, func(ins *workload.Instr, a *mem.Access) {
			if a == nil {
				return
			}
			d, seen := mon.ObserveLine(a.Line(), a.MemIdx)
			if _, dup := dists[a.Line()]; dup {
				return
			}
			if !seen {
				d = never
			}
			dists[a.Line()] = d
		})
		out[m] = dists
	}
	return out, memAtStart
}

func TestKeyReusesExact(t *testing.T) {
	prof := testProfile()
	cfg := testConfig()
	truth, memAtStart := groundTruth(prof, cfg)

	d := New(prof, cfg)
	var allRecords [][]reuse.KeyRecord
	for m := 0; m < cfg.Regions; m++ {
		msg := d.ScoutRegion(m)
		for k := range d.explorers {
			d.ExploreRegion(k, msg)
		}
		allRecords = append(allRecords, msg.AllRecords())
		d.AnalyzeRegion(msg)
	}

	const never = ^uint64(0)
	checked := 0
	for m, recs := range allRecords {
		for _, r := range recs {
			want, inRegion := truth[m][r.Line]
			if !inRegion {
				t.Fatalf("region %d: key %d not in ground-truth region lines", m, r.Line)
			}
			if r.Found {
				if r.Dist != want {
					t.Errorf("region %d line %d: collected dist %d, exact %d (explorer %d)",
						m, r.Line, r.Dist, want, r.Explorer)
				}
				checked++
			} else if want != never {
				// Unresolved keys must genuinely have no reuse within the
				// largest window: their last pre-region access must precede
				// the window start (one gap before the region start).
				winStartMem := uint64(0)
				if m > 0 {
					winStartMem = memAtStart[m-1]
				}
				lastAccess := r.FirstMem - want
				if lastAccess >= winStartMem {
					t.Errorf("region %d line %d: unresolved but last access (mem %d) is inside the window (starts at mem %d)",
						m, r.Line, lastAccess, winStartMem)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no key reuses collected at all")
	}
	t.Logf("verified %d key reuse distances exactly", checked)
}

// TestExplorerWindowAssignment: a key resolved by Explorer k must have
// been unresolvable by Explorer k-1 (its last access lies outside the
// nearer window).
func TestExplorerWindowAssignment(t *testing.T) {
	prof := testProfile()
	cfg := testConfig()
	d := New(prof, cfg)
	for m := 0; m < cfg.Regions; m++ {
		msg := d.ScoutRegion(m)
		for k := range d.explorers {
			d.ExploreRegion(k, msg)
		}
		memRatio := prof.MemRatio
		for _, r := range msg.Records {
			if r.Explorer <= 1 {
				continue
			}
			prevWindowInstr := cfg.WindowInstr(r.Explorer - 2)
			// Convert conservatively: the access happened at least
			// prevWindow instructions before the region if its memory
			// distance exceeds the window's plausible access count.
			maxMemInPrev := uint64(float64(prevWindowInstr) * memRatio * 1.5)
			if r.Dist < maxMemInPrev/3 {
				t.Errorf("region %d line %d: explorer %d found dist %d, far inside window %d's reach",
					m, r.Line, r.Explorer, r.Dist, r.Explorer-1)
			}
		}
		d.AnalyzeRegion(msg)
	}
}

// requireEquivalent fails the test unless the two results are identical in
// every observable: per-region stats, Explorer metrics and all counters.
func requireEquivalent(t *testing.T, seq, pipe *Result) {
	t.Helper()
	if len(seq.Regions) != len(pipe.Regions) {
		t.Fatalf("region counts differ: %d vs %d", len(seq.Regions), len(pipe.Regions))
	}
	for i := range seq.Regions {
		if seq.Regions[i].Stats != pipe.Regions[i].Stats {
			t.Errorf("region %d stats differ:\nseq  %+v\npipe %+v",
				i, seq.Regions[i].Stats, pipe.Regions[i].Stats)
		}
	}
	if seq.AvgExplorers != pipe.AvgExplorers {
		t.Errorf("AvgExplorers differ: %f vs %f", seq.AvgExplorers, pipe.AvgExplorers)
	}
	if seq.KeysPerExplorer != pipe.KeysPerExplorer {
		t.Errorf("KeysPerExplorer differ: %v vs %v", seq.KeysPerExplorer, pipe.KeysPerExplorer)
	}
	names := seq.Counters.Names()
	if pn := pipe.Counters.Names(); len(pn) != len(names) {
		t.Errorf("counter name sets differ: %v vs %v", names, pn)
	}
	for _, name := range names {
		if a, b := seq.Counters.Get(name), pipe.Counters.Get(name); a != b {
			t.Errorf("counter %s differs: %f vs %f", name, a, b)
		}
	}
}

// equivalenceConfigs are the sweep configurations: the local test geometry
// plus a scaled one, so the equivalence holds both at scale 1 and with the
// paper's scaling machinery (scaled windows, floored caches) engaged.
func equivalenceConfigs() map[string]warm.Config {
	a := testConfig()
	a.Regions = 2
	a.PaperGap = 250_000

	b := warm.DefaultConfig()
	b.Regions = 2
	b.Scale = 4
	b.PaperGap = 600_000 // scaled gap 150k, comfortably above DetailWarm
	b.LLCPaperBytes = 1 << 20
	b.VicinityEvery = 20_000
	return map[string]warm.Config{"scale1": a, "scale4": b}
}

// runWavefront drives the exported passes in the paper's pipelined order
// on one goroutine: at step t the Scout handles region t, Explorer k region
// t-1-k and the Analyst region t-1-K, so the Scout runs K+1 regions ahead
// of the Analyst. It is the schedule sampling.BenchSpeeds models when it
// charges the slowest pass.
func runWavefront(d *DeLorean) *Result {
	n, depth := d.Cfg.Regions, len(d.explorers)+1
	msgs := make([]*RegionData, n)
	for t := 0; t < n+depth; t++ {
		if t < n {
			msgs[t] = d.ScoutRegion(t)
		}
		for k := range d.explorers {
			if m := t - 1 - k; m >= 0 && m < n {
				d.ExploreRegion(k, msgs[m])
			}
		}
		if m := t - depth; m >= 0 && m < n {
			d.AnalyzeRegion(msgs[m])
		}
	}
	return d.finish()
}

// TestSequentialPipelinedEquivalence: the passes share nothing but each
// region's RegionData, so running them in the pipelined order, with the
// Scout regions ahead of the Analyst, must produce exactly the sequential
// results — for every workload profile of the suite under at least two
// configurations. This is what lets sampling.BenchSpeeds charge the
// slowest pass instead of the sum.
func TestSequentialPipelinedEquivalence(t *testing.T) {
	profs := append([]*workload.Profile{testProfile()}, workload.Benchmarks()...)
	if testing.Short() {
		profs = profs[:7]
	}
	for cfgName, cfg := range equivalenceConfigs() {
		cfgName, cfg := cfgName, cfg
		for _, prof := range profs {
			prof := prof
			t.Run(prof.Name+"/"+cfgName, func(t *testing.T) {
				t.Parallel()
				seq := New(prof, cfg).RunSequential()
				pipe := runWavefront(New(prof, cfg))
				requireEquivalent(t, seq, pipe)
			})
		}
	}
}

// TestManyExplorersCounterNames: configurations with more than 9 Explorer
// windows must produce sane, distinct, decimal ledger names. Regression
// test for string(rune('0'+k)), which silently emitted ':', ';', '<' ...
// past explorer 9 (and an out-of-range write into KeysPerExplorer).
func TestManyExplorersCounterNames(t *testing.T) {
	cfg := testConfig()
	cfg.Regions = 1
	cfg.ExplorerWindows = []float64{
		0.002, 0.004, 0.008, 0.012, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0,
	}
	for k := 1; k <= 12; k++ {
		want := "fix/keys_e" + strconv.Itoa(k)
		if got := keyCounter(k); got != want {
			t.Errorf("keyCounter(%d) = %q, want %q", k, got, want)
		}
	}
	res := Run(testProfile(), cfg)
	for i := 0; i < 12; i++ {
		name := "explorer-" + strconv.Itoa(i+1)
		if _, ok := res.PassCounters[name]; !ok {
			t.Errorf("missing pass ledger %q", name)
		}
	}
	if got, want := len(res.PassCounters), 12+2; got != want {
		t.Errorf("pass ledger count = %d, want %d (scout + 12 explorers + analyst)", got, want)
	}
	// Key accounting must still close over the full 12-explorer breakdown.
	total := res.Counters.Get("fix/keys_total")
	sum := res.Counters.Get("fix/keys_unresolved")
	for k := 1; k <= 12; k++ {
		sum += res.Counters.Get(keyCounter(k))
	}
	if total != sum {
		t.Errorf("key accounting: total %f != unresolved + sum over 12 explorers %f", total, sum)
	}
	if total == 0 {
		t.Error("no keys at all — test profile too cache-friendly")
	}
}

// TestHotWorkloadNeedsNoExplorers: a fully cache-resident workload must
// filter out essentially all keys at the Scout (the bwaves behaviour:
// average engaged Explorers below 1).
func TestHotWorkloadNeedsNoExplorers(t *testing.T) {
	prof := &workload.Profile{
		Name: "hot-only", MemRatio: 0.4, BranchRatio: 0.1, LoopDuty: 32,
		ILP: 6, CodeKiB: 4, Seed: 5,
		Streams: []workload.StreamSpec{
			{Kind: workload.Rand, Weight: 1, PaperBytes: 2 * 1024, PCs: 8},
		},
	}
	cfg := testConfig()
	res := Run(prof, cfg)
	if res.AvgExplorers > 0.5 {
		t.Errorf("hot workload engaged %.2f explorers on average, want < 0.5", res.AvgExplorers)
	}
	if cpi := res.CPI(); cpi <= 0 {
		t.Errorf("CPI = %f, want > 0", cpi)
	}
}

// TestKeyAccounting: keys found across explorers plus unresolved must
// equal the Scout's total.
func TestKeyAccounting(t *testing.T) {
	res := Run(testProfile(), testConfig())
	total := res.Counters.Get("fix/keys_total")
	var sum float64
	for k := 0; k <= 4; k++ {
		sum += float64(res.KeysPerExplorer[k])
	}
	if total != sum {
		t.Errorf("key accounting: total %f != sum over explorers %f", total, sum)
	}
	if total == 0 {
		t.Error("no keys at all — test profile too cache-friendly")
	}
}

// TestVicinityCollected: engaged explorers must contribute vicinity
// samples, and the count must be far below an RSW-style dense profile.
func TestVicinityCollected(t *testing.T) {
	res := Run(testProfile(), testConfig())
	v := res.Counters.Get("fix/reuse_vicinity")
	if v == 0 {
		t.Fatal("no vicinity samples collected")
	}
}

// TestDeLoreanTimeLedger: the per-pass ledgers split the simulated time
// into warming (Scout + Explorers) and Analyst seconds that sum to the
// merged ledger's total. sampling's TestDeLoreanSpeedIsSlowestPass checks
// that the pipelined time, the slowest pass, is at most that total.
func TestDeLoreanTimeLedger(t *testing.T) {
	cfg := testConfig()
	res := Run(testProfile(), cfg)
	total := res.SimSeconds(cfg.Cost)
	if total <= 0 {
		t.Fatal("ledger produced no time")
	}
	if math.Abs(res.WarmingSeconds+res.AnalystSeconds-total) > total*1e-9 {
		t.Errorf("warming %f + analyst %f != total %f",
			res.WarmingSeconds, res.AnalystSeconds, total)
	}
}
