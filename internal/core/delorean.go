// Package core implements DeLorean, the paper's primary contribution:
// directed statistical warming (DSW) driven by a time-traveling (TT)
// multi-pass pipeline.
//
// Each pass is a separate instance of the same deterministic execution
// (the paper's separate gem5/KVM processes):
//
//	Scout      — fast-forwards (VFF) to each detailed region, simulates the
//	             30k-instruction detailed-warming window functionally to
//	             build the lukewarm filter, and records the key cachelines:
//	             unique lines in the region whose first access the lukewarm
//	             state cannot resolve.
//	Explorer-k — goes "back in time": profiles the window of 5M/50M/100M/1B
//	             (paper-scale) instructions before the region. Explorer-1
//	             uses functional simulation; Explorer-2..4 use virtualized
//	             directed profiling (page-protection watchpoints) over only
//	             the keys its predecessors could not resolve. All engaged
//	             Explorers also sample the sparse vicinity reuse
//	             distribution.
//	Analyst    — runs detailed warming plus the detailed region with the
//	             DSW classifier (warm.DSWOracle) installed.
//
// Passes communicate per region, only through RegionData, and only ever
// move forward through the execution. RunSequential drives them
// region-at-a-time on one goroutine; the paper's pipelined overlap (its
// passes as separate processes joined by OS pipes) is modelled in
// simulated time from the per-pass ledgers: the slowest pass bounds the
// pipeline's throughput (sampling.BenchSpeeds).
//
// Time travel is by checkpoint: one tracker program, owned by the Scout,
// walks each region's checkpoint targets in ascending order and captures
// a workload.Position at every Explorer segment start and at the warm
// point. Every pass seeks to its position (vm.Engine.SeekTo, charged to
// the VFF ledger exactly like a fast-forward), so the host replays each
// gap once instead of once per pass.
package core

import (
	"cmp"
	"slices"
	"strconv"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/reuse"
	"repro/internal/stats"
	"repro/internal/statstack"
	"repro/internal/vm"
	"repro/internal/warm"
	"repro/internal/workload"
)

// RegionData flows from the Scout through the Explorers to the Analyst.
// It is exported so design-space exploration (internal/dse) can feed one
// Scout/Explorer warm-up into many parallel Analysts (§3.3).
type RegionData struct {
	M     int
	Start uint64 // absolute instruction index of the region start
	// Keys holds the keys still unresolved; Records accumulates resolved
	// key reuses as the data moves through the Explorers.
	Keys     []reuse.KeySpec
	Records  []reuse.KeyRecord
	Vicinity *stats.RDHist
	Assoc    *statstack.AssocModel
	Engaged  int
	// WarmPos is the checkpoint at the warm point (Start − DetailWarm),
	// where the Scout and the Analyst begin; ExplorerPos[k] is Explorer k's
	// segment start (Start − WindowInstr(k)). The Scout's tracker captures
	// both before any pass of the region runs.
	WarmPos     workload.Position
	ExplorerPos []workload.Position
}

// AllRecords returns the resolved records plus not-found placeholders for
// the remaining keys (the form the DSW oracle consumes).
func (rd *RegionData) AllRecords() []reuse.KeyRecord {
	out := append([]reuse.KeyRecord(nil), rd.Records...)
	for _, ks := range rd.Keys {
		out = append(out, reuse.KeyRecord{Line: ks.Line, FirstMem: ks.FirstMem})
	}
	return out
}

// DeLorean evaluates benchmarks with directed statistical warming through
// time traveling. Construct with New, then call RunSequential, or drive
// the passes region by region with ScoutRegion, ExploreRegion and
// AnalyzeRegion.
type DeLorean struct {
	Prof *workload.Profile
	Cfg  warm.Config

	// tracker replays the execution once, capturing every region's
	// checkpoints; only ScoutRegion touches it.
	tracker   *workload.Program
	scout     *vm.Engine
	explorers []*vm.Engine
	analyst   *vm.Engine

	res            *Result
	engagedRegions []int
}

// Result extends warm.Result with per-pass ledgers: the time-traveling
// pipeline overlaps its passes across regions, so the simulated evaluation
// time is the slowest pass, not the sum (§3.2).
type Result struct {
	warm.Result
	PassCounters map[string]*stats.Counters
	// Analysts may be replicated for design-space exploration; the base
	// pipeline has exactly one.
	AnalystSeconds float64
	WarmingSeconds float64
}

// New builds a DeLorean evaluation for one benchmark.
func New(prof *workload.Profile, cfg warm.Config) *DeLorean {
	d := &DeLorean{Prof: prof, Cfg: cfg}
	d.tracker = prof.NewProgram(cfg.Scale)
	d.scout = vm.NewEngine(prof.NewProgram(cfg.Scale))
	for range cfg.ExplorerWindows {
		d.explorers = append(d.explorers, vm.NewEngine(prof.NewProgram(cfg.Scale)))
	}
	d.analyst = vm.NewEngine(prof.NewProgram(cfg.Scale))
	d.res = &Result{
		Result: warm.Result{Bench: prof.Name, Method: "DeLorean",
			Counters: stats.NewCounters()},
		PassCounters: make(map[string]*stats.Counters),
	}
	return d
}

// RunSequential evaluates all regions pass-by-pass in a deterministic
// order and returns the aggregated result.
func (d *DeLorean) RunSequential() *Result {
	for m := 0; m < d.Cfg.Regions; m++ {
		if d.Cfg.Cancelled() {
			break // partial; the caller discards it via its context error
		}
		msg := d.ScoutRegion(m)
		for k := range d.explorers {
			d.ExploreRegion(k, msg)
		}
		d.AnalyzeRegion(msg)
	}
	return d.finish()
}

// ScoutRegion captures region m's checkpoints, seeks to its warm point,
// replays the detailed-warming window functionally to build the lukewarm
// filter, and extracts the key cachelines from the region.
func (d *DeLorean) ScoutRegion(m int) *RegionData {
	cfg := d.Cfg
	eng := d.scout
	msg := &RegionData{
		M: m, Start: cfg.RegionStart(m),
		Vicinity:    &stats.RDHist{},
		Assoc:       statstack.NewAssocModel(),
		ExplorerPos: make([]workload.Position, len(d.explorers)),
	}
	d.checkpoint(msg)

	eng.Prop = true
	seek(eng, msg.WarmPos)

	// Lukewarm filter: a small functional hierarchy warmed for DetailWarm
	// instructions. Lines whose first in-region access it can serve need no
	// key reuse at all — for cache-friendly benchmarks (bwaves) this
	// filters nearly everything and no Explorer engages (Fig. 8, <1 avg).
	luke := cache.NewHierarchy(cfg.HierConfig(), nil)
	eng.Prop = false
	eng.RunFuncWarm(cfg.DetailWarm, false, &vm.Warming{Hier: luke})

	var seen mem.FlatSet[mem.Line]
	seen.Grow(256)
	eng.RunFuncWarm(cfg.RegionLen, false, &vm.Warming{Hier: luke, OnData: func(a *mem.Access) {
		l := a.Line()
		if !seen.Add(l) {
			luke.WarmData(l)
			return
		}
		// First in-region access: a lukewarm hit at either level resolves
		// it; otherwise the line is a key cacheline. Probe before warming —
		// the access itself installs the line.
		hit := luke.L1D.Probe(l) || luke.LLC.Probe(l)
		luke.WarmData(l)
		if hit && !cfg.NoLukewarmFilter {
			return
		}
		msg.Keys = append(msg.Keys, reuse.KeySpec{Line: l, FirstMem: a.MemIdx})
	}})
	eng.Counters.Add("fix/keys_total", float64(len(msg.Keys)))
	eng.Counters.Add("fix/region_unique_lines", float64(seen.Len()))
	return msg
}

// checkpoint walks the tracker through the region's checkpoint targets in
// ascending order — every Explorer segment start and the warm point — and
// captures a Position at each. warm.Config.Validate's rules put every
// target of a region at or after the previous region's last one, so the
// tracker only moves forward and the host replays each gap once.
func (d *DeLorean) checkpoint(msg *RegionData) {
	type target struct {
		at  uint64
		pos *workload.Position
	}
	ts := []target{{msg.Start - d.Cfg.DetailWarm, &msg.WarmPos}}
	for k := range msg.ExplorerPos {
		ts = append(ts, target{msg.Start - d.Cfg.WindowInstr(k), &msg.ExplorerPos[k]})
	}
	slices.SortFunc(ts, func(a, b target) int { return cmp.Compare(a.at, b.at) })
	for _, t := range ts {
		cur := d.tracker.InstrIndex()
		if t.at < cur {
			panic("core: checkpoint target behind the tracker (config fails warm.Config.Validate)")
		}
		d.tracker.Skip(t.at - cur)
		*t.pos = d.tracker.Position()
	}
}

// seek moves a pass to a tracker checkpoint. The tracker runs the same
// profile at the same scale as every pass, so a failure is a bug.
func seek(eng *vm.Engine, pos workload.Position) {
	if err := eng.SeekTo(pos); err != nil {
		panic(err)
	}
}

// ExploreRegion runs Explorer k (0-based) over its window segment for the
// message's region, resolving key reuses and sampling the vicinity.
func (d *DeLorean) ExploreRegion(k int, msg *RegionData) {
	cfg := d.Cfg
	eng := d.explorers[k]
	if len(msg.Keys) == 0 {
		return // not engaged: pure fast-forward, deferred until needed
	}
	msg.Engaged++

	segStart := msg.ExplorerPos[k]
	segEnd := msg.Start
	if k > 0 {
		// Predecessors proved there is no access in the nearer windows;
		// profiling stops at the previous window's edge.
		segEnd = msg.Start - cfg.WindowInstr(k-1)
	}
	eng.Prop = true
	seek(eng, segStart)

	collector := reuse.NewKeyCollector(msg.Keys)
	var keySet mem.FlatSet[mem.Line]
	keySet.Grow(len(msg.Keys))
	for _, ks := range msg.Keys {
		keySet.Add(ks.Line)
	}
	vicinityEvery := cfg.VicinityInterval()
	sampler := reuse.NewForwardSampler(float64(vicinityEvery), false)

	span := segEnd - segStart.InstrIdx
	if k == 0 {
		// Explorer-1: functional directed profiling (gem5 atomic mode),
		// observing only the data accesses. Vicinity sampling intervals
		// count instructions, like the VDP sampling stops: the clock
		// advances by each access's InstrIdx delta.
		batch := make(mem.Batch, 0, workload.Chunk)
		instrCount, next := uint64(0), segStart.InstrIdx
		for left := span; left > 0; {
			m := min(left, workload.Chunk)
			left -= m
			batch.Reset()
			eng.RunFuncBatch(m, false, &batch)
			for i := range batch {
				a := &batch[i]
				instrCount += a.InstrIdx + 1 - next
				next = a.InstrIdx + 1
				if keySet.Has(a.Line()) {
					collector.Observe(a)
				}
				sampler.Complete(a)
				if instrCount >= vicinityEvery {
					instrCount = 0
					sampler.Start(a)
				}
			}
		}
	} else {
		// Explorer-2..4: virtualized directed profiling. Watchpoints stay
		// armed on key lines for the whole segment (only the *last* access
		// matters), so every page co-tenant access costs a trigger.
		wps := vm.NewWatchpoints()
		for _, ks := range msg.Keys {
			wps.Watch(ks.Line)
		}
		eng.RunVDP(span, &vm.VDPConfig{
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
	}
	sampler.AbandonPending(true)

	found, missing := collector.Finalize(k + 1)
	msg.Records = append(msg.Records, found...)
	msg.Keys = missing
	msg.Vicinity.Merge(sampler.Hist)
	for _, r := range found {
		msg.Assoc.AddLine(r.Line)
	}
	// Vicinity sample counts are scale-invariant: the window shrinks by S
	// and the sampling interval shrinks by S (DESIGN.md §5).
	eng.Counters.Add("fix/reuse_vicinity", float64(sampler.Completed))
	eng.Counters.Add(keyCounter(k+1), float64(len(found)))
}

func keyCounter(explorer int) string {
	return "fix/keys_e" + strconv.Itoa(explorer)
}

// explorerName is the ledger name of Explorer k (0-based).
func explorerName(k int) string {
	return "explorer-" + strconv.Itoa(k+1)
}

// AnalyzeRegion runs the Analyst: detailed warming plus the detailed
// region under the DSW classifier built from the Explorers' findings.
func (d *DeLorean) AnalyzeRegion(msg *RegionData) {
	cfg := d.Cfg
	eng := d.analyst
	hier := cache.NewHierarchy(cfg.HierConfig(), nil)
	core := cpu.NewCore(cfg.CPU, hier, nil)
	// Unresolved keys become not-found records (cold misses).
	oracle := warm.NewDSWOracle(msg.AllRecords(), msg.Vicinity, msg.Assoc, hier)
	eng.Prop = true
	rr, err := warm.EvalRegionAt(cfg, eng, msg.WarmPos, core, oracle)
	if err != nil {
		panic(err) // see seek
	}
	d.res.Regions = append(d.res.Regions, rr)
	d.engagedRegions = append(d.engagedRegions, msg.Engaged)
	eng.Counters.Add("fix/keys_unresolved", float64(len(msg.Keys)))
}

// finish merges the per-pass ledgers and computes the Explorer metrics.
func (d *DeLorean) finish() *Result {
	r := d.res
	r.PassCounters["scout"] = d.scout.Counters
	for i, e := range d.explorers {
		r.PassCounters[explorerName(i)] = e.Counters
	}
	r.PassCounters["analyst"] = d.analyst.Counters
	// Merge in a fixed pass order, not map order: float addition is not
	// associative, and the aggregate must be bit-identical across runs for
	// the golden-figure and determinism tests.
	r.Counters.Merge(d.scout.Counters)
	for _, e := range d.explorers {
		r.Counters.Merge(e.Counters)
	}
	r.Counters.Merge(d.analyst.Counters)
	var engaged int
	for _, e := range d.engagedRegions {
		engaged += e
	}
	if n := len(d.engagedRegions); n > 0 {
		r.AvgExplorers = float64(engaged) / float64(n)
	}
	// KeysPerExplorer is a fixed-size array sized for the paper's four
	// windows; configurations with more Explorers keep the full breakdown
	// in the fix/keys_eN counters, and the array holds the first four.
	for k := 1; k <= len(d.explorers) && k < len(r.KeysPerExplorer); k++ {
		r.KeysPerExplorer[k] = uint64(r.Counters.Get(keyCounter(k)))
	}
	r.KeysPerExplorer[0] = uint64(r.Counters.Get("fix/keys_unresolved"))
	cm := d.Cfg.Cost
	r.WarmingSeconds = cm.Seconds(d.scout.Counters)
	for _, e := range d.explorers {
		r.WarmingSeconds += cm.Seconds(e.Counters)
	}
	r.AnalystSeconds = cm.Seconds(d.analyst.Counters)
	return r
}

// MemAccesses returns the total number of memory accesses generated across
// all pass programs so far — the work unit dse's BenchmarkDSEFanout
// normalizes its timings against.
func (d *DeLorean) MemAccesses() uint64 {
	n := d.scout.Prog.MemIndex() + d.analyst.Prog.MemIndex()
	for _, e := range d.explorers {
		n += e.Prog.MemIndex()
	}
	return n
}

// PassLedgers exposes the per-pass event ledgers ("scout", "explorer-1"..,
// "analyst"); design-space exploration uses them to account the shared
// warm-up separately from the per-configuration Analysts.
func (d *DeLorean) PassLedgers() map[string]*stats.Counters {
	out := map[string]*stats.Counters{
		"scout":   d.scout.Counters,
		"analyst": d.analyst.Counters,
	}
	for i, e := range d.explorers {
		out[explorerName(i)] = e.Counters
	}
	return out
}

// Run is the convenience entry point used by the sampling layer: it
// evaluates the benchmark sequentially (deterministic) and returns the
// result.
func Run(prof *workload.Profile, cfg warm.Config) *Result {
	return New(prof, cfg).RunSequential()
}
