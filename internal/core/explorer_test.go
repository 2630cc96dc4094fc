package core

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/reuse"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/workload"
)

// explorer1Reference is Explorer-1's per-instruction loop over stepFunc,
// which counts every instruction toward the vicinity interval. It is the
// oracle for the batched pass and returns what that pass hands on: the
// found records, the keys left for Explorer-2 and the vicinity histogram.
func explorer1Reference(d *DeLorean, msg *RegionData) ([]reuse.KeyRecord, []reuse.KeySpec, *stats.RDHist) {
	cfg := d.Cfg
	eng := vm.NewEngine(d.Prof.NewProgram(cfg.Scale))
	seek(eng, msg.ExplorerPos[0])
	collector := reuse.NewKeyCollector(msg.Keys)
	var keySet mem.FlatSet[mem.Line]
	for _, ks := range msg.Keys {
		keySet.Add(ks.Line)
	}
	every := cfg.VicinityInterval()
	sampler := reuse.NewForwardSampler(float64(every), false)
	count := uint64(0)
	stepFunc(eng.Prog, msg.Start-msg.ExplorerPos[0].InstrIdx, func(_ *workload.Instr, a *mem.Access) {
		count++
		if a == nil {
			return
		}
		if keySet.Has(a.Line()) {
			collector.Observe(a)
		}
		sampler.Complete(a)
		if count >= every {
			count = 0
			sampler.Start(a)
		}
	})
	sampler.AbandonPending(true)
	found, missing := collector.Finalize(1)
	hist := &stats.RDHist{}
	hist.Merge(sampler.Hist)
	return found, missing, hist
}

// TestExplorer1MatchesPerInstruction pins the batched Explorer-1 to the
// per-instruction oracle. The vicinity interval is short and odd, so the
// window samples many times and the stops land everywhere in a chunk; the
// digest configurations' Explorer-1 windows are shorter than one interval
// and never sample.
func TestExplorer1MatchesPerInstruction(t *testing.T) {
	cfg := testConfig()
	cfg.VicinityEvery = 37
	for _, prof := range []*workload.Profile{testProfile(), workload.Mcf(), workload.Omnetpp()} {
		d := New(prof, cfg)
		for m := 0; m < cfg.Regions; m++ {
			msg := d.ScoutRegion(m)
			if len(msg.Keys) == 0 {
				t.Fatalf("%s region %d: no keys, Explorer-1 not engaged", prof.Name, m)
			}
			found, missing, hist := explorer1Reference(d, msg)
			d.ExploreRegion(0, msg)
			if hist.Samples() < 50 {
				t.Fatalf("%s region %d: only %d vicinity samples", prof.Name, m, hist.Samples())
			}
			if !reflect.DeepEqual(msg.Records, found) || !reflect.DeepEqual(msg.Keys, missing) {
				t.Fatalf("%s region %d: key records differ from the per-instruction pass", prof.Name, m)
			}
			if !reflect.DeepEqual(msg.Vicinity, hist) {
				t.Fatalf("%s region %d: vicinity histogram differs from the per-instruction pass", prof.Name, m)
			}
		}
	}
}
