// Co-run simulation engine: the reference that makes the StatCC model of
// statcc.go testable. N workload programs run on N private-L1 cores that
// share one LLC (cache.NewSharedHierarchy); the engine interleaves them
// cycle-balanced — always stepping the core with the fewest elapsed cycles —
// so each app's share of the interleaved access stream is proportional to
// its access *rate* (accesses/instruction over CPI), exactly the weighting
// StatCC's dilation assumes. Faster apps naturally execute more
// instructions per shared-cache "wall-clock" window, slower apps fewer.
package multiprog

import (
	"math"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/reuse"
	"repro/internal/stats"
	"repro/internal/workload"
)

// CoSimConfig is the co-run simulation setup. Capacities are paper-scale
// bytes divided by Scale, like everywhere else (DESIGN.md §2).
type CoSimConfig struct {
	Scale         uint64
	LLCPaperBytes uint64
	Prefetch      bool
	CPU           cpu.Config
	// WarmupInstr is the per-app instruction count of the interleaved
	// cache warm-up phase (not measured).
	WarmupInstr uint64
	// MeasureCycles is the measured co-run horizon in core cycles: every
	// core runs until its own clock passes the horizon, so all apps cover
	// the same simulated wall-clock span at their own speeds.
	MeasureCycles uint64
	// Quantum is the scheduling quantum in instructions; it bounds how far
	// one core's clock may run ahead between interleave decisions.
	Quantum uint64
	// MaxIters bounds the StatCC fixed point used for predictions.
	MaxIters int

	// Cancel, when set, is polled between scheduling quanta (every
	// cancelPollMask+1 quanta, to keep the hot loop free of its cost): a
	// true return stops the phase early, leaving a partial state the
	// caller must discard (the spec layer reports its context's error
	// instead of the partial result). Execution hint only: excluded from
	// serialization, checkpoints and spec identity (`json:"-"`), nil
	// everywhere outside a cancellable service job.
	Cancel func() bool `json:"-"`
}

// cancelPollMask throttles Cancel polling to every 64th quantum: a
// quantum is ~200 instructions, so cancellation latency stays far under a
// millisecond while the per-quantum cost of a nil-or-false poll vanishes.
const cancelPollMask = 63

// DefaultCoSimConfig mirrors the paper's Table 1 machine at scale 64 with
// an 8 MiB(-equivalent) shared LLC.
func DefaultCoSimConfig() CoSimConfig {
	return CoSimConfig{
		Scale:         64,
		LLCPaperBytes: 8 << 20,
		CPU:           cpu.DefaultConfig(),
		WarmupInstr:   200_000,
		MeasureCycles: 600_000,
		Quantum:       200,
		MaxIters:      50,
	}
}

// HierConfig builds the Table 1 hierarchy for this configuration.
func (c CoSimConfig) HierConfig() cache.HierarchyConfig {
	h := cache.DefaultHierarchy(c.LLCPaperBytes, c.Scale)
	h.Prefetch = c.Prefetch
	return h
}

// LLCLines returns the shared-LLC capacity in cachelines (the unit the
// statistical models take).
func (c CoSimConfig) LLCLines() uint64 { return c.HierConfig().LLC.Lines() }

func (c CoSimConfig) quantum() uint64 {
	if c.Quantum == 0 {
		return 200
	}
	return c.Quantum
}

// Cancelled reports whether the run's Cancel hook (if any) asks to stop.
func (c CoSimConfig) Cancelled() bool { return c.Cancel != nil && c.Cancel() }

// AppSim is one app's measured co-run behaviour.
type AppSim struct {
	Name  string
	Stats cpu.Stats
	// CPI is the measured cycles per instruction under contention.
	CPI float64
	// MissRatio is shared-LLC misses per *memory access* (not per LLC
	// access) — the quantity StatStack/StatCC predict from the full reuse
	// stream, so the two sides are directly comparable.
	MissRatio float64
	// Dilation is the measured interleaving factor: total co-run memory
	// accesses over this app's own, during the measured window.
	Dilation float64
}

// CoRunResult is one full co-run simulation.
type CoRunResult struct {
	LLCPaperBytes uint64
	Apps          []AppSim
}

// coApp is one core's runtime state. cycles and meas are scheduler-hot:
// the min-cycle scan reads every app's cycles each quantum and the owner
// updates cycles/meas after each Run. The trailing pad rounds the
// struct to 128 bytes — a multiple of the host line size that is its own
// malloc size class — so per-app scratch from two independent CoSims
// (separate matrix cells on separate host threads) can never share a
// line, whatever the allocator packs next to it.
type coApp struct {
	name   string
	prog   *workload.Program
	core   *cpu.Core
	cycles uint64
	meas   cpu.Stats
	_      [8]byte // round to 128 = 2 host lines = own size class
}

// CoSim interleaves N programs onto private-L1 cores sharing one LLC.
// Construct with NewCoSim; Run is single-shot. Deterministic: the same
// profiles and config produce identical results on every run.
type CoSim struct {
	Cfg  CoSimConfig
	apps []*coApp
	// warmed is the warm-up phase's per-app instruction-quota scratch.
	warmed []uint64
	// alignStart is the common cycle horizon the warm-up/alignment phase
	// brought every core up to; the measured window runs from here. Set by
	// WarmAlign (or restored from a checkpoint).
	alignStart uint64
	// progressEvery/onProgress arm periodic mid-measured-window capture
	// (SetProgress): every progressEvery measured quanta the engine hands
	// onProgress a fresh Checkpoint. Execution hints like Cfg.Cancel —
	// never part of state, identity or serialization.
	progressEvery uint64
	progressCount uint64
	onProgress    func(*CoSimCheckpoint)
}

// NewCoSim builds the co-run engine for the given app mix.
func NewCoSim(profs []*workload.Profile, cfg CoSimConfig) *CoSim {
	hiers := cache.NewSharedHierarchy(cfg.HierConfig(), len(profs))
	cs := &CoSim{
		Cfg: cfg,
		// The warm-up quota scratch is written every quantum; rounding its
		// capacity up to 8 words puts the backing array in the 64-byte malloc
		// class (one full host line) instead of a shared tiny-object slot, so
		// concurrent CoSims on other threads cannot false-share it.
		warmed: make([]uint64, len(profs), (len(profs)+7)&^7),
	}
	for i, p := range profs {
		prog := p.NewProgram(cfg.Scale)
		cs.apps = append(cs.apps, &coApp{
			name: p.Name,
			prog: prog,
			core: cpu.NewCore(cfg.CPU, hiers[i], nil),
		})
	}
	return cs
}

// warmup runs every app for perApp instructions, cycle-balanced: each step
// goes to the core with the fewest elapsed cycles among those still under
// their quota (ties break by index, so scheduling is deterministic). The
// min-cycle scan is inlined — the earlier closure-driven selector cost an
// eligibility closure per step on the engine's hottest control loop.
func (cs *CoSim) warmup(perApp, q uint64) {
	warmed := cs.warmed
	for i := range warmed {
		warmed[i] = 0
	}
	for poll := uint64(0); ; poll++ {
		if poll&cancelPollMask == 0 && cs.Cfg.Cancelled() {
			return
		}
		best := -1
		for i, a := range cs.apps {
			if warmed[i] >= perApp {
				continue
			}
			if best < 0 || a.cycles < cs.apps[best].cycles {
				best = i
			}
		}
		if best < 0 {
			return
		}
		n := q
		if rem := perApp - warmed[best]; rem < n {
			n = rem
		}
		a := cs.apps[best]
		st := a.core.Run(a.prog, n)
		a.cycles += st.Cycles
		warmed[best] += n
	}
}

// runWindow advances the mix to the common cycle horizon, one quantum at a
// time, always stepping the core with the fewest elapsed cycles (ties
// break by index). The global minimum is the schedule: an app whose clock
// passed the horizon is never the minimum while an eligible app remains,
// and when the minimum itself passes the horizon every clock has. When
// measure is set the per-app stats accumulate into the measured window.
func (cs *CoSim) runWindow(horizon, q uint64, measure bool) {
	if len(cs.apps) == 0 {
		return
	}
	for poll := uint64(0); ; poll++ {
		if poll&cancelPollMask == 0 && cs.Cfg.Cancelled() {
			return
		}
		best := 0
		for i := 1; i < len(cs.apps); i++ {
			if cs.apps[i].cycles < cs.apps[best].cycles {
				best = i
			}
		}
		a := cs.apps[best]
		if a.cycles >= horizon {
			return
		}
		st := a.core.Run(a.prog, q)
		a.cycles += st.Cycles
		if measure {
			a.meas.Add(st)
			if cs.onProgress != nil {
				if cs.progressCount++; cs.progressCount >= cs.progressEvery {
					cs.progressCount = 0
					cs.onProgress(cs.Checkpoint())
				}
			}
		}
	}
}

// Run executes the warm-up then the measured co-run window and returns the
// per-app results. Every phase feeds whole quanta to cpu.Core.Run; the
// interleaving (and every statistic) is bit-identical to the
// per-instruction engine, which the cosim tests replay via
// cpu.Core.RunReference as the oracle.
func (cs *CoSim) Run() *CoRunResult {
	cs.WarmAlign()
	return cs.RunMeasured()
}

// WarmAlign executes the unmeasured prefix of a co-run: the interleaved
// cache warm-up followed by clock alignment. After it returns the engine's
// entire state is a pure function of (profiles, config) — the natural
// checkpoint cut: Checkpoint here, then fork any number of measured runs
// from the captured state instead of re-executing this phase per cell.
// Call once, before RunMeasured.
func (cs *CoSim) WarmAlign() {
	cfg := cs.Cfg
	q := cfg.quantum()

	// Interleaved warm-up: every app executes WarmupInstr instructions,
	// cycle-balanced, populating the private L1s and the shared LLC under
	// contention. Nothing is measured.
	if cfg.WarmupInstr > 0 {
		cs.warmup(cfg.WarmupInstr, q)
	}

	// Alignment: the instruction-quota warm-up leaves the cores' clocks
	// skewed (slow apps took more cycles for the same instructions). Bring
	// every core up to the slowest clock, unmeasured, so the measured
	// windows coincide in wall-clock — otherwise a fast app spends the
	// start of its window running against co-runners that are "in the
	// future" and makes no interleaved accesses, under-reporting its
	// contention. A no-op for a solo app.
	var start uint64
	for _, a := range cs.apps {
		if a.cycles > start {
			start = a.cycles
		}
	}
	cs.runWindow(start, q, false)
	cs.alignStart = start
}

// SetProgress arms periodic capture inside the measured window: fn gets a
// fresh Checkpoint every `every` measured quanta (0 disarms), from which
// NewCoSimFromCheckpoint resumes the window. Like CoSimConfig.Cancel this
// is an execution hint — it never enters serialization or spec identity,
// and the capture happens at a quantum boundary so the checkpoint is
// always resumable.
func (cs *CoSim) SetProgress(every uint64, fn func(*CoSimCheckpoint)) {
	if every == 0 || fn == nil {
		cs.progressEvery, cs.onProgress = 0, nil
		return
	}
	cs.progressEvery, cs.onProgress = every, fn
}

// RunMeasured executes the measured co-run window from the aligned state
// (produced by WarmAlign on this instance, or restored by
// NewCoSimFromCheckpoint, possibly mid-window) and returns the per-app
// results. Single-shot.
func (cs *CoSim) RunMeasured() *CoRunResult {
	cfg := cs.Cfg

	// Measured window: a common cycle horizon, so every app covers the
	// same wall-clock span at its own (contended) speed.
	cs.runWindow(cs.alignStart+cfg.MeasureCycles, cfg.quantum(), true)

	res := &CoRunResult{LLCPaperBytes: cfg.LLCPaperBytes}
	var totalMem uint64
	for _, a := range cs.apps {
		totalMem += a.meas.MemAccesses
	}
	for _, a := range cs.apps {
		as := AppSim{Name: a.name, Stats: a.meas, CPI: a.meas.CPI()}
		if a.meas.MemAccesses > 0 {
			as.MissRatio = float64(a.meas.MemServed) / float64(a.meas.MemAccesses)
			as.Dilation = float64(totalMem) / float64(a.meas.MemAccesses)
		}
		res.Apps = append(res.Apps, as)
	}
	return res
}

// SimulateCoRun is the convenience one-shot entry point.
func SimulateCoRun(profs []*workload.Profile, cfg CoSimConfig) *CoRunResult {
	return NewCoSim(profs, cfg).Run()
}

// SoloCalibration is everything the StatCC prediction needs about one app,
// collected from solo runs only — the §4.2 premise is that per-app profiles
// are gathered separately and contention is *predicted*, never co-simulated.
type SoloCalibration struct {
	App           App // Hist, AccessesPerInstr, BaseCPI, MissPenalty
	SoloCPI       float64
	SoloMissRatio float64
}

// SoloProfile is the size-independent part of an app's calibration:
// everything except the target-size solo run. Collect it once per app with
// ProfileSolo, then complete a calibration per LLC size with Calibrate —
// the histogram pass and the three reference simulations (base CPI plus
// the two penalty points) do not depend on the target LLC. The struct is
// pure data (the full workload profile rides along) so a profile decoded
// from the artifact store calibrates exactly like a freshly collected one.
type SoloProfile struct {
	Profile workload.Profile
	App     App // Hist, AccessesPerInstr, BaseCPI, Penalty (MissPenalty unset)
}

// Calibrate completes the profile for one target LLC size by running the
// solo simulation there.
func (sp SoloProfile) Calibrate(cfg CoSimConfig) SoloCalibration {
	prof := sp.Profile
	solo := SimulateCoRun([]*workload.Profile{&prof}, cfg).Apps[0]
	app := sp.App
	app.MissPenalty = app.Penalty.At(solo.MissRatio)
	return SoloCalibration{
		App:           app,
		SoloCPI:       solo.CPI,
		SoloMissRatio: solo.MissRatio,
	}
}

// ProfileSolo collects an app's solo reuse profile and calibrates the CPI
// model against reference simulations:
//
//   - an exact reuse-distance histogram over the co-run span (the stand-in
//     for an Explorer-collected sparse profile),
//   - BaseCPI from a solo run with an LLC big enough to never miss for
//     capacity,
//   - an effective miss-penalty curve from solo runs at two footprint-
//     relative reference LLC sizes.
//
// The effective penalty folds the core's memory-level parallelism into the
// linear CPI model, so what the co-run validation exercises is StatCC's
// actual contribution: the dilation → miss-ratio fixed point.
func ProfileSolo(prof *workload.Profile, cfg CoSimConfig) SoloProfile {
	// Exact solo reuse histogram over (roughly) the simulated span, run
	// through the batched trace→monitor pipeline. The warm-up portion only
	// primes the monitor: distances recorded there would count every first
	// touch as cold, but the simulation measures a warmed cache, so only
	// the post-warm-up window contributes samples (first touches inside it
	// are genuine cold references) — the InstrIdx filter below, identical
	// in effect to gating the old access-at-a-time loop on its counter.
	prog := prof.NewProgram(cfg.Scale)
	mon := reuse.NewExactMonitor()
	hist := &stats.RDHist{}
	span := cfg.WarmupInstr + cfg.MeasureCycles
	const chunk = 8192
	batch := make(mem.Batch, 0, chunk)
	for done := uint64(0); done < span; {
		if cfg.Cancelled() {
			break // partial; the caller discards it via its context error
		}
		n := span - done
		if n > chunk {
			n = chunk
		}
		batch.Reset()
		prog.FillBatch(n, &batch, nil)
		mon.ObserveHist(batch, hist, cfg.WarmupInstr)
		done += n
	}
	apki := float64(prog.MemIndex()) / float64(prog.InstrIndex())

	// Solo run with a perfect (footprint-sized) LLC for the base CPI.
	baseCfg := cfg
	baseCfg.LLCPaperBytes = 2 * prog.Footprint() * cfg.Scale
	base := SimulateCoRun([]*workload.Profile{prof}, baseCfg).Apps[0]

	// Effective miss penalty from solo runs at two *reference* LLC sizes
	// below the footprint, so both calibration points have a robust miss
	// population (calibrating at the target size degenerates whenever the
	// app fits solo: soloCPI ≈ baseCPI gives a near-0/0 penalty). Two
	// points matter because the effective per-miss cost is not constant:
	// dense miss streams overlap across the MSHRs while sparse misses are
	// fully exposed. The linear fit through the two points, clamped at
	// their miss ratios, captures that first-order MLP effect.
	refPoint := func(frac uint64) (missRatio, penalty float64) {
		refCfg := cfg
		refCfg.LLCPaperBytes = prog.Footprint() * cfg.Scale / frac
		if floor := uint64(8<<10) * cfg.Scale; refCfg.LLCPaperBytes < floor {
			refCfg.LLCPaperBytes = floor
		}
		ref := SimulateCoRun([]*workload.Profile{prof}, refCfg).Apps[0]
		if d := ref.MissRatio * apki; d > 0 && ref.CPI > base.CPI {
			return ref.MissRatio, (ref.CPI - base.CPI) / d
		}
		return 0, 0
	}
	m1, p1 := refPoint(4) // small LLC: dense misses
	m2, p2 := refPoint(2) // half-footprint LLC: sparser misses
	return SoloProfile{
		Profile: *prof,
		App: App{
			Name:             prof.Name,
			Hist:             hist,
			AccessesPerInstr: apki,
			BaseCPI:          base.CPI,
			Penalty:          &PenaltyFit{M1: m1, P1: p1, M2: m2, P2: p2},
		},
	}
}

// Calibrate is the one-shot convenience: size-independent profiling plus
// the target-size solo run.
func Calibrate(prof *workload.Profile, cfg CoSimConfig) SoloCalibration {
	return ProfileSolo(prof, cfg).Calibrate(cfg)
}

// Predict runs the StatCC fixed point for a calibrated mix sharing the
// configured LLC.
func Predict(cals []SoloCalibration, cfg CoSimConfig) []AppResult {
	apps := make([]App, len(cals))
	for i, c := range cals {
		apps[i] = c.App
	}
	return Solve(apps, cfg.LLCLines(), cfg.MaxIters)
}

// CoRunApp pairs one app's simulated and predicted co-run behaviour.
type CoRunApp struct {
	Name          string
	SimCPI        float64
	PredCPI       float64
	SimMissRatio  float64
	PredMissRatio float64
	SimDilation   float64
	PredDilation  float64
	SoloCPI       float64
	SoloMissRatio float64
	BaseCPI       float64
}

// CPIError returns |pred-sim|/sim (0 when the simulation measured nothing).
func (a CoRunApp) CPIError() float64 {
	if a.SimCPI == 0 {
		return 0
	}
	return math.Abs(a.PredCPI-a.SimCPI) / a.SimCPI
}

// MissError returns the absolute miss-ratio prediction error.
func (a CoRunApp) MissError() float64 { return math.Abs(a.PredMissRatio - a.SimMissRatio) }

// BuildComparison zips a simulated co-run with its StatCC prediction. The
// calibrations must be in app order, matching the simulated result.
func BuildComparison(cals []SoloCalibration, sim *CoRunResult, pred []AppResult) []CoRunApp {
	out := make([]CoRunApp, len(sim.Apps))
	for i, s := range sim.Apps {
		out[i] = CoRunApp{
			Name:          s.Name,
			SimCPI:        s.CPI,
			PredCPI:       pred[i].CPI,
			SimMissRatio:  s.MissRatio,
			PredMissRatio: pred[i].MissRatio,
			SimDilation:   s.Dilation,
			PredDilation:  pred[i].Dilation,
			SoloCPI:       cals[i].SoloCPI,
			SoloMissRatio: cals[i].SoloMissRatio,
			BaseCPI:       cals[i].App.BaseCPI,
		}
	}
	return out
}
