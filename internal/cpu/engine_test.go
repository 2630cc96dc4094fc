package cpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/workload"
)

// clearScratch zeroes the core's access-record scratch before a state
// comparison: it is plumbing, not model state — Run only materializes the
// records the miss tail consumes, so after an L1 hit it legitimately holds
// an older record than the oracle's.
func clearScratch(c *Core) { c.acc = mem.Access{} }

// oracleCall is one logged consultation of a hashOracle.
type oracleCall struct {
	a  mem.Access
	lv cache.Level
}

// hashOracle is a deterministic fake cache.Oracle. It overrides a miss when
// a hash of the whole access record and the level says so, and logs every
// call, so two engines driving it agree only if they present identical
// records (PC, address, MemIdx, InstrIdx) in an identical order — the
// fields the DSW and RSW oracles read.
type hashOracle struct{ log []oracleCall }

func (o *hashOracle) OverrideMiss(a *mem.Access, lv cache.Level) bool {
	o.log = append(o.log, oracleCall{*a, lv})
	h := a.PC*0x9e3779b97f4a7c15 ^ uint64(a.Addr)*0xc2b2ae3d27d4eb4f ^
		a.MemIdx*0x165667b19e3779f9 ^ a.InstrIdx*0x27d4eb2f165667c5 ^ uint64(lv)
	if a.Write {
		h = ^h
	}
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	return h%3 != 0
}

// TestRunBatchMatchesRun is the timing core's oracle gate: for every
// workload profile in the suite, a core driven by the chunked Run must
// produce bit-identical per-quantum Stats AND bit-identical final state —
// the whole Core (dispatch clock, ROB ring, MSHR ring, in-flight table),
// the whole hierarchy (tags, ages, tick counters, statistics) and the
// branch predictor — compared to a twin core driven by the per-instruction
// RunReference. Each profile runs twice: with no oracle, and with a
// hashOracle armed, whose call logs must match too. Quanta of varying
// sizes (255, 256 and 257 straddle one decode chunk, 3000 and 30 000 many;
// 30 000 is a region's detailed warming) land the chunk and call
// boundaries mid-burst, mid-miss and across phase edges. The name predates
// the merge of the batched engine into Run.
func TestRunBatchMatchesRun(t *testing.T) {
	quanta := []uint64{200, 1, 7, 200, 3000, 64, 513, 200, 255, 256, 257, 30_000}
	for _, prof := range workload.Benchmarks() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			for _, armed := range []bool{false, true} {
				const scale = 256
				mk := func() (*Core, *workload.Program, *hashOracle) {
					hier := cache.NewHierarchy(cache.DefaultHierarchy(4<<20, scale), nil)
					var o *hashOracle
					if armed {
						o = &hashOracle{}
						hier.Oracle = o
					}
					return NewCore(DefaultConfig(), hier, nil), prof.NewProgram(scale), o
				}
				refCore, refProg, refOracle := mk()
				core, prog, oracle := mk()
				for qi, q := range quanta {
					want := refCore.RunReference(refProg, q)
					got := core.Run(prog, q)
					if got != want {
						t.Fatalf("oracle armed %v, quantum %d (n=%d): stats diverge:\nRun          %+v\nRunReference %+v", armed, qi, q, got, want)
					}
				}
				if armed {
					if len(refOracle.log) == 0 {
						t.Fatal("armed oracle was never consulted")
					}
					if !reflect.DeepEqual(oracle.log, refOracle.log) {
						t.Fatalf("oracle call logs diverge: Run made %d calls, RunReference %d", len(oracle.log), len(refOracle.log))
					}
				}
				clearScratch(refCore)
				clearScratch(core)
				if !reflect.DeepEqual(core, refCore) {
					t.Errorf("oracle armed %v: final core state diverges (including hierarchy and predictor)", armed)
				}
				if !reflect.DeepEqual(prog, refProg) {
					t.Errorf("oracle armed %v: final program state diverges", armed)
				}
			}
		})
	}
}

// TestRunBatchMatchesRunInterleaved: mixing the two engines on ONE core
// mid-stream must also be exact — Run's fetch-line memo starts invalid on
// every call, so nothing about a preceding RunReference (or functional
// warming) can poison a following Run.
func TestRunBatchMatchesRunInterleaved(t *testing.T) {
	prof := workload.Mcf()
	const scale = 256
	mk := func() (*Core, *workload.Program) {
		hier := cache.NewHierarchy(cache.DefaultHierarchy(4<<20, scale), nil)
		return NewCore(DefaultConfig(), hier, nil), prof.NewProgram(scale)
	}
	refCore, refProg := mk()
	mixCore, mixProg := mk()
	for i := 0; i < 40; i++ {
		want := refCore.RunReference(refProg, 200)
		var got Stats
		if i%2 == 0 {
			got = mixCore.Run(mixProg, 200)
		} else {
			got = mixCore.RunReference(mixProg, 200)
		}
		if got != want {
			t.Fatalf("quantum %d: stats diverge:\nmixed  %+v\noracle %+v", i, got, want)
		}
	}
	clearScratch(refCore)
	clearScratch(mixCore)
	if !reflect.DeepEqual(mixCore, refCore) {
		t.Errorf("final core state diverges after interleaving Run and RunReference")
	}
}

// TestInFlightTableBounded: a store retires at ready+1, so an MSHR-full
// stall delays its issue but never dispatch, and a run of store misses
// leaves entries whose completion keeps moving ahead of every later ready
// cycle. An all-stores mcf at MemRatio 0.6, a profile Validate accepts,
// must still keep the in-flight table within its cap under Run and
// RunReference alike (uncapped, it held 173,106 entries after 1 M
// instructions; the suite peaks at 37).
func TestInFlightTableBounded(t *testing.T) {
	const scale = 64
	prof := workload.Mcf()
	prof.MemRatio = 0.6
	prof.Streams = append([]workload.StreamSpec(nil), prof.Streams...)
	for i := range prof.Streams {
		prof.Streams[i].WriteFrac = 1
	}
	if err := prof.Validate(scale); err != nil {
		t.Fatal(err)
	}
	for _, reference := range []bool{false, true} {
		core := NewCore(DefaultConfig(), cache.NewHierarchy(cache.DefaultHierarchy(8<<20, scale), nil), nil)
		prog := prof.NewProgram(scale)
		peak := 0
		for i := 0; i < 100; i++ {
			if reference {
				core.RunReference(prog, 10_000)
			} else {
				core.Run(prog, 10_000)
			}
			peak = max(peak, core.outstanding.Len())
		}
		if limit := inFlightPerMSHR * core.mshrs; peak > limit {
			t.Errorf("reference %v: in-flight table reached %d entries, cap %d", reference, peak, limit)
		}
	}
}

// TestCoreUsesConfiguredMSHRs: the MSHR table (ring capacity, occupancy
// bound, in-flight sizing) must come from the hierarchy configuration, not
// a hardcoded 8 — the regression this pins was Config.L1DMSHRs() ignoring
// the config entirely.
func TestCoreUsesConfiguredMSHRs(t *testing.T) {
	cfg := cache.DefaultHierarchy(1<<20, 64)
	cfg.L1D.MSHRs = 3
	core := NewCore(DefaultConfig(), cache.NewHierarchy(cfg, nil), nil)
	if core.mshrs != 3 || len(core.mshrFree.buf) != 3 {
		t.Errorf("mshrs = %d, ring capacity = %d, want 3 from hierarchy config", core.mshrs, len(core.mshrFree.buf))
	}
	core = NewCore(DefaultConfig(), nil, nil)
	if core.mshrs != 8 {
		t.Errorf("nil-hierarchy fallback mshrs = %d, want 8", core.mshrs)
	}
}

// TestMSHRRingOrdering pins the sorted ring against a reference multiset
// under a randomized push/pop/drain workload shaped like the core's
// (near-ascending completion times, occasional popMin bursts).
func TestMSHRRingOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, capacity := range []int{1, 2, 8, 20} {
		var r mshrRing
		r.init(capacity)
		var ref []uint64
		base := uint64(100)
		for step := 0; step < 20_000; step++ {
			if r.n < capacity && (r.n == 0 || rng.Intn(3) > 0) {
				x := base + uint64(rng.Intn(300))
				base += uint64(rng.Intn(5))
				r.push(x)
				ref = append(ref, x)
				sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
			} else {
				if got, want := r.min(), ref[0]; got != want {
					t.Fatalf("cap %d step %d: min = %d, want %d", capacity, step, got, want)
				}
				r.popMin()
				ref = ref[1:]
			}
			if r.n != len(ref) {
				t.Fatalf("cap %d step %d: len = %d, want %d", capacity, step, r.n, len(ref))
			}
		}
	}
}

// BenchmarkCoreRun times the timing core on one region's shape: 30 k
// instructions of detailed warming then a 10 k-instruction detailed region
// (two Run calls) per iteration, on mcf, continuing one program and one
// warmed core across iterations.
func BenchmarkCoreRun(b *testing.B) {
	for _, scale := range []uint64{1, 256} {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			hier := cache.NewHierarchy(cache.DefaultHierarchy(8<<20, scale), nil)
			core := NewCore(DefaultConfig(), hier, nil)
			prog := workload.Mcf().NewProgram(scale)
			const warmLen, regionLen = 30_000, 10_000
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Run(prog, warmLen)
				core.Run(prog, regionLen)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(warmLen+regionLen)), "ns/instr")
		})
	}
}
