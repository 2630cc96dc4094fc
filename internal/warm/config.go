// Package warm implements the warming strategies the paper compares:
//
//   - functional warming (SMARTS [34]): simulate the caches for every
//     access between detailed regions,
//   - randomized statistical warming (CoolSim [23]): watchpoint-sampled
//     per-PC reuse distributions feeding a statistical cache model,
//   - the Fig. 3 statistical classifier used by directed statistical
//     warming (the DSW oracle that internal/core's Analyst plugs into the
//     hierarchy).
//
// The package also owns the sampled-simulation configuration shared by all
// three methodologies and the per-region detailed-evaluation helper
// (30 k instructions of detailed warming — the "lukewarm" state — followed
// by the measured detailed region).
package warm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Config is the sampled-simulation setup (paper §5): 10 detailed regions of
// 10 k instructions spread 1 B instructions apart, 30 k instructions of
// detailed warming, Explorer windows of 5 M / 50 M / 100 M / 1 B
// instructions, vicinity sampling at 1/100 k memory instructions. All
// paper-scale quantities are divided by Scale (DESIGN.md §2).
type Config struct {
	Regions    int
	RegionLen  uint64 // instructions, not scaled
	DetailWarm uint64 // instructions, not scaled

	PaperGap      uint64 // instructions between detailed regions, paper scale
	Scale         uint64
	LLCPaperBytes uint64
	Prefetch      bool

	// VicinityEvery is DSW's vicinity sampling interval in memory
	// instructions at paper scale (default 1/100 k; Fig. 11 sweeps it).
	// Like the windows it samples, it is divided by Scale at use — which
	// makes the number of vicinity samples per region scale-invariant.
	VicinityEvery uint64
	// ExplorerWindows are the directed-profiling windows as fractions of
	// the gap (paper: 5 M/50 M/100 M/1 B over a 1 B gap).
	ExplorerWindows []float64

	// NoLukewarmFilter disables the Scout's lukewarm key filter (ablation
	// only): every unique line of the detailed region becomes a key.
	NoLukewarmFilter bool

	// RSWSchedule is CoolSim's adaptive sampling schedule: consecutive
	// segments of the warm-up interval (fractions summing to 1) with their
	// sampling intervals in memory instructions.
	RSWSchedule []RSWSegment

	CPU  cpu.Config
	Cost vm.CostModel
	// Seed perturbs the probabilistic classifier decisions (not the
	// workload, which carries its own seed).
	Seed uint64

	// Cancel, when set, is polled between detailed regions (the
	// methodologies' natural work quantum): a true return makes the run
	// stop early and return a partial result, which the spec layer then
	// discards by reporting the context's error. It is an execution hint —
	// excluded from serialization and spec identity (`json:"-"`), never
	// set on decoded specs, and nil everywhere outside a cancellable
	// service job.
	Cancel func() bool `json:"-"`
}

// Cancelled reports whether the run's Cancel hook (if any) asks to stop.
func (c Config) Cancelled() bool { return c.Cancel != nil && c.Cancel() }

// RSWSegment is one segment of CoolSim's adaptive schedule.
type RSWSegment struct {
	Frac     float64
	Interval uint64
}

// DefaultConfig mirrors the paper's experimental setup at scale 64.
func DefaultConfig() Config {
	return Config{
		Regions:       10,
		RegionLen:     10_000,
		DetailWarm:    30_000,
		PaperGap:      1_000_000_000,
		Scale:         64,
		LLCPaperBytes: 8 << 20,
		VicinityEvery: 100_000,
		// 5M, 50M, 100M, 1B instructions over a 1B gap.
		ExplorerWindows: []float64{0.005, 0.05, 0.10, 1.0},
		// "sample one memory location every 40k memory instructions for the
		// first 750M instructions, then one every 20k for the next 200M,
		// and finally one every 10k for the last 50M" (§6).
		RSWSchedule: []RSWSegment{{0.75, 40_000}, {0.20, 20_000}, {0.05, 10_000}},
		CPU:         cpu.DefaultConfig(),
		Cost:        vm.DefaultCostModel(),
		Seed:        1,
	}
}

// DecodeConfig parses a JSON-encoded Config strictly: unknown fields are
// rejected (recursively, nested structs included), so a spec written
// against a future Config revision fails loudly instead of silently
// dropping the field it depended on. Absent fields keep their zero value —
// callers that want paper defaults should overlay onto DefaultConfig()
// before encoding, not after decoding.
func DecodeConfig(b []byte) (Config, error) {
	var cfg Config
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// MaxLLCBytes bounds the scaled LLC a spec may request. cache.New sizes
// its tag and age arrays from the LLC, so an unbounded request is an
// out-of-memory kill, which no panic containment can catch. The paper's
// largest LLC is 512 MiB at scale 1.
const MaxLLCBytes = 1 << 30

// ValidateLLC checks that an LLC of paperBytes at scale, sized as
// cache.DefaultHierarchy sizes it, stays within MaxLLCBytes.
func ValidateLLC(paperBytes, scale uint64) error {
	if size := cache.DefaultHierarchy(paperBytes, scale).LLC.SizeB; size > MaxLLCBytes {
		return fmt.Errorf("LLC of %d paper bytes at scale %d is %d bytes, above the %d-byte bound", paperBytes, scale, size, MaxLLCBytes)
	}
	return nil
}

// Validate checks the rules every sampled run relies on: a positive
// Scale, a scaled LLC within MaxLLCBytes, Explorer windows non-empty and strictly ascending within (0, 1],
// a detailed-warming window plus detailed region that fit in one gap, and
// a CPU the timing core can build (cpu.Config.Validate). Under these
// rules every region's checkpoint targets lie at or after the previous
// region's, which is what lets DeLorean's tracker (internal/core) replay
// the execution once, moving only forward.
func (c Config) Validate() error {
	if c.Scale == 0 {
		return errors.New("Scale must be > 0")
	}
	if err := ValidateLLC(c.LLCPaperBytes, c.Scale); err != nil {
		return fmt.Errorf("LLCPaperBytes: %w", err)
	}
	if len(c.ExplorerWindows) == 0 {
		return errors.New("ExplorerWindows is empty")
	}
	prev := 0.0
	for i, w := range c.ExplorerWindows {
		if !(w > prev && w <= 1) { // also rejects NaN
			return fmt.Errorf("ExplorerWindows[%d] = %v: windows must be strictly ascending within (0, 1]", i, w)
		}
		prev = w
	}
	if gap := c.Gap(); c.DetailWarm > gap || c.RegionLen > gap-c.DetailWarm {
		return fmt.Errorf("DetailWarm %d + RegionLen %d exceed the scaled gap %d", c.DetailWarm, c.RegionLen, gap)
	}
	return c.CPU.Validate()
}

// Gap returns the scaled inter-region gap in instructions.
func (c Config) Gap() uint64 { return c.PaperGap / c.Scale }

// RegionStart returns the absolute instruction index at which detailed
// region m (0-based) begins. The first region sits one full gap into the
// execution so every region has a complete warm-up interval behind it.
func (c Config) RegionStart(m int) uint64 { return uint64(m+1) * c.Gap() }

// TotalInstr returns the instruction span covered by the sampled run.
func (c Config) TotalInstr() uint64 {
	return c.RegionStart(c.Regions-1) + c.RegionLen
}

// HierConfig builds the Table 1 hierarchy for this configuration.
func (c Config) HierConfig() cache.HierarchyConfig {
	h := cache.DefaultHierarchy(c.LLCPaperBytes, c.Scale)
	h.Prefetch = c.Prefetch
	return h
}

// WindowInstr returns Explorer window k (0-based) in scaled instructions.
func (c Config) WindowInstr(k int) uint64 {
	return uint64(c.ExplorerWindows[k] * float64(c.Gap()))
}

// VicinityInterval returns the vicinity sampling interval in scaled memory
// instructions (floored at 1).
func (c Config) VicinityInterval() uint64 {
	v := c.VicinityEvery / c.Scale
	if v == 0 {
		v = 1
	}
	return v
}

// RegionResult is the detailed evaluation of one region.
type RegionResult struct {
	Start     uint64
	Stats     cpu.Stats
	LLCMisses uint64 // LLC misses counted by the hierarchy during the region
}

// Result aggregates one benchmark under one methodology.
type Result struct {
	Bench    string
	Method   string
	Regions  []RegionResult
	Counters *stats.Counters

	// AvgExplorers and KeysPerExplorer are DeLorean-only (Figs. 7, 8).
	AvgExplorers    float64
	KeysPerExplorer [5]uint64 // index 1..4; 0 holds unresolved keys
}

// CPI returns the regions' aggregate cycles per instruction.
func (r *Result) CPI() float64 {
	var cyc, ins uint64
	for _, reg := range r.Regions {
		cyc += reg.Stats.Cycles
		ins += reg.Stats.Instructions
	}
	if ins == 0 {
		return 0
	}
	return float64(cyc) / float64(ins)
}

// LLCMPKI returns LLC misses per kilo-instruction across regions.
func (r *Result) LLCMPKI() float64 {
	var miss, ins uint64
	for _, reg := range r.Regions {
		miss += reg.LLCMisses
		ins += reg.Stats.Instructions
	}
	if ins == 0 {
		return 0
	}
	return 1000 * float64(miss) / float64(ins)
}

// LukewarmHitRate averages the per-region L1 hit rate (paper: 93.5% avg).
func (r *Result) LukewarmHitRate() float64 {
	var hits, acc uint64
	for _, reg := range r.Regions {
		hits += reg.Stats.L1DHits
		acc += reg.Stats.MemAccesses
	}
	if acc == 0 {
		return 0
	}
	return float64(hits) / float64(acc)
}

// HitOrDelayedRate additionally counts MSHR hits (paper: 96.7% avg).
func (r *Result) HitOrDelayedRate() float64 {
	var hits, acc uint64
	for _, reg := range r.Regions {
		hits += reg.Stats.L1DHits + reg.Stats.MSHRHits
		acc += reg.Stats.MemAccesses
	}
	if acc == 0 {
		return 0
	}
	return float64(hits) / float64(acc)
}

// SimSeconds converts the ledger to simulated evaluation time.
func (r *Result) SimSeconds(cm vm.CostModel) float64 {
	return cm.Seconds(r.Counters)
}

// MIPS returns simulated speed over the covered span.
func (r *Result) MIPS(cfg Config) float64 {
	s := r.SimSeconds(cfg.Cost)
	if s == 0 {
		return 0
	}
	return float64(cfg.TotalInstr()) / s / 1e6
}

// EvalRegion runs the standard per-region detailed evaluation: DetailWarm
// instructions of detailed warming with the oracle disabled (building the
// lukewarm state), then the measured RegionLen instructions with the
// oracle armed. The caller provides a freshly reset hierarchy/core pair
// positioned DetailWarm instructions before the region.
func EvalRegion(cfg Config, eng *vm.Engine, core *cpu.Core, oracle cache.Oracle) RegionResult {
	hier := core.Hier
	hier.Oracle = nil
	eng.Prop = false
	core.Run(eng.Prog, cfg.DetailWarm)
	eng.ChargeDetail(cfg.DetailWarm)

	hier.Oracle = oracle
	llcBefore := hier.LLCMissCount
	start := eng.Prog.InstrIndex()
	st := core.Run(eng.Prog, cfg.RegionLen)
	eng.ChargeDetail(cfg.RegionLen)
	hier.Oracle = nil
	return RegionResult{
		Start:     start,
		Stats:     st,
		LLCMisses: hier.LLCMissCount - llcBefore,
	}
}

// EvalRegionAt is EvalRegion for an engine that has not yet reached the
// region: it first seeks the engine to the captured warm-start position —
// charging the skipped span to the VFF ledger (vm.Engine.SeekTo), so
// ledger-derived figures cannot move — then runs the standard
// evaluation. The position is produced once per region by DeLorean's
// tracker program (internal/core) and shared by its Analyst and by all
// per-size Analysts of a DSE fan-out, so none of them replays the gap.
func EvalRegionAt(cfg Config, eng *vm.Engine, at workload.Position, core *cpu.Core, oracle cache.Oracle) (RegionResult, error) {
	if err := eng.SeekTo(at); err != nil {
		return RegionResult{}, err
	}
	return EvalRegion(cfg, eng, core, oracle), nil
}
