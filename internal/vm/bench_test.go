package vm_test

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/reuse"
	"repro/internal/vm"
	"repro/internal/warm"
	"repro/internal/workload"
)

// BenchmarkKeyReuse is the directed-profiling loop in isolation: a Scout
// pass picks the key cachelines of a detailed region, then an Explorer
// pass runs virtualized directed profiling over the window before it —
// page-grained watchpoint checks on every access, key-reuse collection,
// sparse vicinity sampling. One op is one region; the watchpoint set is
// reused (Clear) across regions, as the Explorer reuses it.
func BenchmarkKeyReuse(b *testing.B) {
	prof := workload.Zeusmp()
	cfg := warm.DefaultConfig()
	cfg.Scale = 1024
	scout := vm.NewEngine(prof.NewProgram(cfg.Scale))
	exp := vm.NewEngine(prof.NewProgram(cfg.Scale))
	wps := vm.NewWatchpoints()
	window := cfg.Gap() / 8
	vicinityEvery := cfg.VicinityInterval()
	var region mem.Batch
	m := 0
	step := func() {
		regionStart := cfg.RegionStart(m)
		m++

		// Scout: first-touch unique lines of the detailed region.
		scout.Prog.Skip(regionStart - scout.Prog.InstrIndex())
		var keys []reuse.KeySpec
		var seen mem.FlatSet[mem.Line]
		seen.Grow(256)
		region.Reset()
		scout.RunFuncBatch(cfg.RegionLen, false, &region)
		for i := range region {
			if l := region[i].Line(); seen.Add(l) {
				keys = append(keys, reuse.KeySpec{Line: l, FirstMem: region[i].MemIdx})
			}
		}

		// Explorer: VDP over the window before the region with all key
		// watchpoints armed for the whole span.
		exp.Prog.Skip(regionStart - window - exp.Prog.InstrIndex())
		for _, ks := range keys {
			wps.Watch(ks.Line)
		}
		collector := reuse.NewKeyCollector(keys)
		var keySet mem.FlatSet[mem.Line]
		keySet.Grow(len(keys))
		for _, ks := range keys {
			keySet.Add(ks.Line)
		}
		sampler := reuse.NewForwardSampler(float64(vicinityEvery), false)
		exp.RunVDP(window, &vm.VDPConfig{
			WPs:           wps,
			TriggersFixed: true,
			SampleEvery:   vicinityEvery,
			OnSample: func(a *mem.Access) {
				if sampler.Start(a) {
					wps.Watch(a.Line())
				}
			},
			OnTrigger: func(a *mem.Access) {
				l := a.Line()
				isKey := keySet.Has(l)
				if isKey {
					collector.Observe(a)
				}
				if sampler.Complete(a) && !isKey {
					wps.Unwatch(l)
				}
			},
		})
		sampler.AbandonPending(true)
		collector.Finalize(1)
		wps.Clear()
	}
	accesses := func() uint64 { return scout.Prog.MemIndex() + exp.Prog.MemIndex() }
	step() // warm-up region
	b.ResetTimer()
	start := accesses()
	for i := 0; i < b.N; i++ {
		step()
	}
	n := accesses() - start
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/access")
	b.ReportMetric(float64(n)/float64(b.N), "accesses/op")
}
