package spec_test

import (
	"fmt"
	"testing"

	"repro/internal/cpu"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/warm"
)

// BenchmarkStore covers the persistence layer: encode, atomic persist,
// load, integrity check and decode of a representative sampling artifact
// (per-region stats and a full counter ledger) through the real spec codec
// and artifact store — the cost a warm `figures -store` run pays per cache
// hit. One op round-trips 16 keys; the work unit is one artifact round
// trip, so ns/access reads as ns per round trip.
func BenchmarkStore(b *testing.B) {
	const keys = 16
	st, err := spec.OpenStore(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	res := syntheticResult()
	roundTrips := func() {
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("%064x", i)
			st.Save(spec.KindSampling, key, res)
			if _, ok := st.Load(spec.KindSampling, key); !ok {
				b.Fatal("freshly saved artifact missing")
			}
		}
	}
	roundTrips() // warm-up: the keys' files exist from here on
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrips()
	}
	n := uint64(b.N) * keys
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/access")
	b.ReportMetric(keys, "accesses/op")
}

// syntheticResult builds a paper-shaped sampling artifact: 10 regions of
// detailed stats plus a realistic counter ledger.
func syntheticResult() *warm.Result {
	r := &warm.Result{Bench: "synthetic", Method: "SMARTS", Counters: stats.NewCounters()}
	rng := stats.NewRNG(7)
	for m := 0; m < 10; m++ {
		r.Regions = append(r.Regions, warm.RegionResult{
			Start: uint64(m+1) * 1_000_000,
			Stats: cpu.Stats{
				Instructions: 10_000, Cycles: 8_000 + rng.Uint64n(4_000),
				MemAccesses: 3_500, L1DHits: 3_200, MSHRHits: 60,
				LLCHits: 120, MemServed: 120, BrLookups: 1_800, BrMispred: 90,
			},
			LLCMisses: rng.Uint64n(200),
		})
	}
	for i := 0; i < 24; i++ {
		r.Counters.Add(fmt.Sprintf("win/synthetic_%02d", i), float64(rng.Uint64n(1<<32)))
	}
	return r
}
