package cache

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/workload"
)

// flipOracle alternates override decisions so the equivalence test
// exercises both oracle outcomes on both levels.
type flipOracle struct{ n int }

func (o *flipOracle) OverrideMiss(a *mem.Access, lv Level) bool {
	o.n++
	return o.n%3 == 0
}

// TestAccessBatchMatchesAccessData pins the batched hierarchy path to the
// access-at-a-time one: identical per-access results, counters and cache
// state, with and without an oracle and with the prefetcher on.
func TestAccessBatchMatchesAccessData(t *testing.T) {
	for _, tc := range []struct {
		name     string
		oracle   bool
		prefetch bool
	}{
		{"plain", false, false},
		{"oracle", true, false},
		{"prefetch", false, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultHierarchy(8<<20, 64)
			cfg.Prefetch = tc.prefetch
			var oa, ob Oracle
			if tc.oracle {
				oa, ob = &flipOracle{}, &flipOracle{}
			}
			ha := NewHierarchy(cfg, oa) // access-at-a-time
			hb := NewHierarchy(cfg, ob) // batched

			prog := workload.Povray().NewProgram(64)
			var batch mem.Batch
			prog.FillBatch(200_000, &batch, nil)

			var want []DataResult
			for i := range batch {
				want = append(want, ha.AccessData(&batch[i]))
			}
			var got []DataResult
			// Split the batch unevenly to cross chunk boundaries.
			for lo := 0; lo < len(batch); {
				hi := lo + 1 + (lo*7)%613
				if hi > len(batch) {
					hi = len(batch)
				}
				got = hb.AccessBatch(batch[lo:hi], got)
				lo = hi
			}

			if len(got) != len(want) {
				t.Fatalf("%d batched results, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("result %d differs: batched %+v, want %+v", i, got[i], want[i])
				}
			}
			if ha.DataAccesses != hb.DataAccesses || ha.LLCMissCount != hb.LLCMissCount ||
				ha.WarmingHits != hb.WarmingHits || ha.PrefIssued != hb.PrefIssued {
				t.Fatalf("counters diverged: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
					hb.DataAccesses, hb.LLCMissCount, hb.WarmingHits, hb.PrefIssued,
					ha.DataAccesses, ha.LLCMissCount, ha.WarmingHits, ha.PrefIssued)
			}
			// Cache state must be identical: probe every line of the batch.
			for i := range batch {
				l := batch[i].Line()
				if ha.L1D.Probe(l) != hb.L1D.Probe(l) || ha.LLC.Probe(l) != hb.LLC.Probe(l) {
					t.Fatalf("cache state diverged at line %#x", l)
				}
			}
		})
	}
}

// TestAccessBatchSteadyStateAllocs: the batched hierarchy path allocates
// nothing once the result slice is sized.
func TestAccessBatchSteadyStateAllocs(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy(8<<20, 64), nil)
	prog := workload.GemsFDTD().NewProgram(64)
	batch := make(mem.Batch, 0, 4096)
	prog.FillBatch(4096, &batch, nil)
	results := h.AccessBatch(batch, nil) // size the result slice
	allocs := testing.AllocsPerRun(20, func() {
		results = h.AccessBatch(batch, results[:0])
	})
	if allocs != 0 {
		t.Fatalf("steady-state AccessBatch allocated %.2f times per window", allocs)
	}
}
