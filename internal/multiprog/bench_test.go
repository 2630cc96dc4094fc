package multiprog

import (
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/workload"
)

// benchCell is one cell of the co-run validation matrix: four contending
// apps on the shared LLC, with the windows the CI floors were recorded at.
func benchCell() ([]*workload.Profile, CoSimConfig) {
	cfg := DefaultCoSimConfig()
	cfg.WarmupInstr = 50_000
	cfg.MeasureCycles = 200_000
	return []*workload.Profile{workload.Mcf(), workload.Lbm(), workload.Omnetpp(), workload.Xalancbmk()}, cfg
}

// memAccesses sums the measured-window accesses over every app of a run.
func memAccesses(res *CoRunResult) uint64 {
	var n uint64
	for _, a := range res.Apps {
		n += a.Stats.MemAccesses
	}
	return n
}

// BenchmarkCorunCell is one cell of the co-run validation matrix: a full
// 4-core shared-LLC simulation (construction, warm-up, alignment,
// measurement) exactly as figures.CoRunMatrix pays it per (mix × LLC size)
// point. Accesses are counted over the measured windows, so ns/access
// includes the warm-up overhead, matching the matrix cell's real cost.
func BenchmarkCorunCell(b *testing.B) {
	profs, cfg := benchCell()
	SimulateCoRun(profs, cfg) // warm-up cell
	b.ResetTimer()
	var n uint64
	for i := 0; i < b.N; i++ {
		n += memAccesses(SimulateCoRun(profs, cfg))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/access")
	b.ReportMetric(float64(n)/float64(b.N), "accesses/op")
}

// forkedCellCheckpoint warms and aligns the benchmark cell once per
// process and round-trips its checkpoint through the JSON encoding the
// store persists, so the testing package's b.N ramp does not repeat it.
var forkedCellCheckpoint = sync.OnceValues(func() (*CoSimCheckpoint, error) {
	cs := NewCoSim(benchCell())
	cs.WarmAlign()
	raw, err := json.Marshal(cs.Checkpoint())
	if err != nil {
		return nil, err
	}
	var ck CoSimCheckpoint
	return &ck, json.Unmarshal(raw, &ck)
})

// BenchmarkCorunCellForked is BenchmarkCorunCell on the checkpoint/fork
// path: each op restores a fresh engine from the decoded warm checkpoint
// and runs only the measured window — what a corun-sim cell pays when it
// re-runs after its own artifact is gone but its warm checkpoint is not,
// or resumes before its first progress checkpoint. No two matrix cells
// share a warm checkpoint, so nothing is amortized across cells. Forking
// must stay decisively cheaper than warming.
func BenchmarkCorunCellForked(b *testing.B) {
	ck, err := forkedCellCheckpoint()
	if err != nil {
		b.Fatal(err)
	}
	profs, cfg := benchCell()
	fork := func() uint64 {
		forked, err := NewCoSimFromCheckpoint(profs, cfg, ck)
		if err != nil {
			b.Fatal(err)
		}
		return memAccesses(forked.RunMeasured())
	}
	fork() // warm-up fork
	b.ResetTimer()
	var n uint64
	for i := 0; i < b.N; i++ {
		n += fork()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/access")
	b.ReportMetric(float64(n)/float64(b.N), "accesses/op")
}
