// Package vm is the execution substrate standing in for the paper's
// KVM-plus-gem5 stack. An Engine drives a deterministic workload program
// in one of several execution modes, each charged to a simulated-time cost
// ledger at that mode's speed:
//
//   - virtualized fast-forwarding (VFF): nothing observes the stream;
//     near-native speed (KVM in the paper). SeekTo jumps to a position a
//     tracker program captured and charges the skipped span,
//   - functional simulation: every instruction is observed (gem5's atomic
//     CPU), optionally with cache warming (slower). RunFuncBatch hands the
//     data-access stream to the caller; RunFuncWarm keeps a cache
//     hierarchy, and optionally a branch predictor, warm. Both decode the
//     program in FillBatch chunks, and RunFuncWarm replays the I-side
//     from the program's fetch walk, so no pass materializes a
//     per-instruction record; a long RunFuncWarm walk decodes on a helper
//     goroutine, one hand-off ahead of the warming (DESIGN.md §9),
//   - virtualized directed profiling (VDP): near-native execution with
//     page-protection watchpoints; every access to a watched page — true
//     positive or not — pays a fixed trigger cost (KVM exit + signal
//     delivery + handler in the paper),
//   - detailed simulation is driven by cpu.Core directly; its cost is
//     charged through ChargeDetail.
//
// Reported speeds are derived from the ledger, not host wall-clock: the
// *shape* of every speed figure comes from counted events (instructions
// per mode, watchpoint triggers), and only the per-event constants below
// are calibrated against the paper's absolute numbers (DESIGN.md §5).
package vm

import (
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/workload"
)

// CostModel holds the per-event simulated-time constants.
type CostModel struct {
	VFFMIPS       float64 // KVM fast-forward
	FuncMIPS      float64 // atomic CPU, no cache model
	FuncCacheMIPS float64 // atomic CPU + cache warming (SMARTS FW)
	DetailMIPS    float64 // cycle-accurate OoO
	VDPMIPS       float64 // virtualized execution between watchpoint stops
	TriggerSec    float64 // one watchpoint stop (true or false positive)
}

// DefaultCostModel calibrates the constants so the reference methodologies
// land near the paper's absolute speeds (SMARTS ~1.3 MIPS, CoolSim ~21.9
// MIPS; §6.1). They are global constants, never tuned per benchmark.
func DefaultCostModel() CostModel {
	return CostModel{
		VFFMIPS:       2000,
		FuncMIPS:      20,
		FuncCacheMIPS: 1.6,
		DetailMIPS:    0.2,
		VDPMIPS:       2000,
		TriggerSec:    25e-6,
	}
}

// Ledger counter names. The "win/" prefix marks window-proportional events
// that the sampling layer extrapolates when reporting at paper scale; the
// "fix/" prefix marks per-region fixed costs (DESIGN.md §5).
const (
	KindVFF        = "instr_vff"
	KindFunc       = "instr_func"
	KindFuncCache  = "instr_funccache"
	KindDetail     = "instr_detail"
	KindVDP        = "instr_vdp"
	KindTrigger    = "trigger"
	KindTriggerFP  = "trigger_fp" // subset of triggers that were false positives
	KindSampleStop = "sample_stop"
)

// Seconds converts a ledger into simulated seconds under the cost model.
func (cm CostModel) Seconds(c *stats.Counters) float64 {
	var s float64
	for _, prefix := range []string{"win/", "fix/"} {
		s += c.Get(prefix+KindVFF) / (cm.VFFMIPS * 1e6)
		s += c.Get(prefix+KindFunc) / (cm.FuncMIPS * 1e6)
		s += c.Get(prefix+KindFuncCache) / (cm.FuncCacheMIPS * 1e6)
		s += c.Get(prefix+KindDetail) / (cm.DetailMIPS * 1e6)
		s += c.Get(prefix+KindVDP) / (cm.VDPMIPS * 1e6)
		s += c.Get(prefix+KindTrigger) * cm.TriggerSec
		s += c.Get(prefix+KindSampleStop) * cm.TriggerSec
	}
	return s
}

// The paged bitmap representation below packs one page's watched lines
// into a single uint64, which requires exactly 64 cachelines per page.
// Both constants underflow a uint64 conversion unless LinesPerPage == 64.
const (
	_ = uint64(mem.LinesPerPage - 64)
	_ = uint64(64 - mem.LinesPerPage)
)

// Watchpoints tracks watched cachelines, indexed by page — the paper's
// directed-profiling mechanism uses the page-protection hardware, so *any*
// access to a page containing a watched line triggers a stop.
//
// The page index is an open-addressing flat table mapping each watched
// page to a 64-bit bitmap of its watched lines, so the per-access
// WatchedPage check on the VDP hot path is a single probe and the
// per-window Clear retains all backing storage. The old map-of-maps
// representation survives as the reference oracle in the tests.
type Watchpoints struct {
	pages mem.FlatMap[mem.Page, uint64]
	n     int
}

// NewWatchpoints returns an empty set.
func NewWatchpoints() *Watchpoints {
	return &Watchpoints{}
}

func lineBit(l mem.Line) uint64 {
	return uint64(1) << (uint64(l) & (mem.LinesPerPage - 1))
}

// Watch protects line l.
func (w *Watchpoints) Watch(l mem.Line) {
	p, _ := w.pages.Upsert(mem.PageOfLine(l))
	if bit := lineBit(l); *p&bit == 0 {
		*p |= bit
		w.n++
	}
}

// Unwatch removes the watchpoint on l (no-op if absent).
func (w *Watchpoints) Unwatch(l mem.Line) {
	pg := mem.PageOfLine(l)
	p := w.pages.Ptr(pg)
	if p == nil {
		return
	}
	bit := lineBit(l)
	if *p&bit == 0 {
		return
	}
	*p &^= bit
	w.n--
	if *p == 0 {
		w.pages.Delete(pg)
	}
}

// WatchedPage reports whether any line of page p is watched.
func (w *Watchpoints) WatchedPage(p mem.Page) bool {
	return w.pages.Ptr(p) != nil
}

// WatchedLine reports whether l itself is watched.
func (w *Watchpoints) WatchedLine(l mem.Line) bool {
	p := w.pages.Ptr(mem.PageOfLine(l))
	return p != nil && *p&lineBit(l) != 0
}

// Count returns the number of watched lines.
func (w *Watchpoints) Count() int { return w.n }

// Clear removes all watchpoints, retaining the backing storage so the
// Explorer's per-window re-arming never reallocates.
func (w *Watchpoints) Clear() {
	w.pages.Reset()
	w.n = 0
}

// AccessHandler observes one memory access during functional execution.
// a points into a buffer the engine reuses: copy what outlives the call,
// never keep the pointer.
type AccessHandler func(a *mem.Access)

// VDPConfig configures one directed-profiling run.
type VDPConfig struct {
	WPs *Watchpoints
	// OnTrigger is invoked for true-positive stops (the accessed line is
	// watched). False positives are charged and counted but not delivered.
	OnTrigger AccessHandler
	// SampleEvery, when non-zero, arms a sampling stop every SampleEvery
	// *instructions* (a performance-counter overflow in the paper); the
	// stop lands on the next memory access, which OnSample receives. This
	// is the mechanism both RSW and the vicinity sampler use to pick reuse
	// start points. Instruction-based intervals are what make CoolSim's
	// published schedule (40k/20k/10k over a 1 B gap) produce its published
	// ~340k samples per benchmark.
	SampleEvery uint64
	OnSample    AccessHandler
	// TriggersFixed charges watchpoint-trigger costs to the fixed ledger
	// regardless of Engine.Prop. DSW's key watchpoints use it: the number
	// of keys is a property of the detailed region and each key's
	// false-positive rate is scale-invariant (page density and window
	// length scale inversely), so trigger counts must not be extrapolated
	// with the window-proportional events (DESIGN.md §5).
	TriggersFixed bool
}

// Engine drives one program instance and charges its execution to a ledger.
type Engine struct {
	Prog     *workload.Program
	Counters *stats.Counters
	// Prop selects the ledger prefix: window-proportional ("win/") or
	// per-region fixed ("fix/"). Callers set it per phase.
	Prop bool

	sampleCount uint64
	chunk       mem.Batch         // chunk buffer of RunVDP and the serial RunFuncWarm, allocated on first use
	branches    []workload.Branch // the serial RunFuncWarm's branch outcomes per chunk, likewise
	pipe        *pipeline         // the pipelined RunFuncWarm's hand-off ring, likewise
}

// NewEngine wraps prog with a fresh ledger.
func NewEngine(prog *workload.Program) *Engine {
	return &Engine{Prog: prog, Counters: stats.NewCounters(), Prop: true}
}

func (e *Engine) prefix() string {
	if e.Prop {
		return "win/"
	}
	return "fix/"
}

func (e *Engine) charge(kind string, n float64) {
	e.Counters.Add(e.prefix()+kind, n)
}

// RunFuncBatch executes n instructions under functional simulation,
// appending every memory access to b as a by-value record; non-memory
// instructions execute unobserved. It serves the callers that only
// consume the data-access stream: Explorer-1 runs on it in
// workload.Chunk-instruction batches.
func (e *Engine) RunFuncBatch(n uint64, cacheSim bool, b *mem.Batch) {
	e.Prog.FillBatch(n, b, nil)
	e.chargeFunc(n, cacheSim)
}

// chargeFunc charges n functionally simulated instructions at the rate
// cacheSim selects.
func (e *Engine) chargeFunc(n uint64, cacheSim bool) {
	if cacheSim {
		e.charge(KindFuncCache, float64(n))
	} else {
		e.charge(KindFunc, float64(n))
	}
}

// Warming is what one functional-warming pass keeps warm.
type Warming struct {
	Hier *cache.Hierarchy
	// BP, when non-nil, is trained on every branch outcome.
	BP *cpu.BranchPred
	// OnData, when non-nil, takes every data access in place of the plain
	// Hier.WarmData, and must warm the line itself. It runs after the
	// fetches of every instruction up to and including the access's own,
	// as a per-instruction loop would order them.
	OnData AccessHandler
}

// RunFuncWarm executes n instructions under functional simulation, keeping
// w warm: every instruction fetch warms Hier's I-side, every data access
// its D-side, and every branch outcome trains BP. The hierarchy, predictor
// and ledger end bit-identical to a per-instruction loop of Next,
// WarmInstr, WarmData and PredictAndUpdate (pinned by
// TestFunctionalWarmMatchesPerInstruction). It serves SMARTS functional
// warming (cacheSim) and the Scout's lukewarm filter.
//
// The program runs in FillBatch chunks of workload.Chunk instructions, and
// three observations replace the per-instruction loop:
//
//   - The I-side is replayed from the program's fetch walk: one WarmInstr
//     per fetch-line run, and the run's remaining fetches, certain L1I
//     hits because nothing else touches the private L1I in between,
//     collapse into one exact cache.Cache.TouchN.
//   - Before each data access, the walk is advanced through the access's
//     instruction, so the I- and D-side misses reach the shared LLC in
//     program order.
//   - The branch outcomes train BP in a loop of their own per chunk: the
//     predictor shares no state with the caches.
//
// A walk of pipeMinInstrs or more is pipelined (runPipelined): a helper
// goroutine decodes it and trains BP one hand-off ahead while the caller
// warms the hierarchy. OnData runs on the caller's goroutine either way,
// but must not touch e.Prog, which the helper owns during the walk.
func (e *Engine) RunFuncWarm(n uint64, cacheSim bool, w *Warming) {
	f := fetchCursor{walk: e.Prog.FetchWalk(), next: e.Prog.InstrIndex()} // next: first instruction not yet fetched
	f.end = f.next + n
	if n >= pipeMinInstrs {
		e.runPipelined(n, w, &f)
	} else {
		e.runChunked(n, w, &f)
	}
	for f.next < f.end {
		f.next = fetchRun(w.Hier, &f.walk, f.next, f.end)
	}
	e.chargeFunc(n, cacheSim)
}

// runChunked is the serial walk: decode a chunk, warm it, train BP on it.
func (e *Engine) runChunked(n uint64, w *Warming, f *fetchCursor) {
	if e.chunk == nil {
		e.chunk = make(mem.Batch, 0, workload.Chunk)
	}
	var brs *[]workload.Branch
	if w.BP != nil {
		if e.branches == nil {
			e.branches = make([]workload.Branch, 0, workload.Chunk)
		}
		brs = &e.branches
	}
	for left := n; left > 0; {
		m := min(left, workload.Chunk)
		left -= m
		e.chunk.Reset()
		e.branches = e.branches[:0]
		e.Prog.FillBatch(m, &e.chunk, brs)
		f.warm(w, e.chunk)
		for _, b := range e.branches {
			w.BP.PredictAndUpdate(b.PC, b.Taken)
		}
	}
}

// fetchCursor is a walk's I-side position: the fetch walk, the first
// instruction not yet fetched, and the instruction after the walk.
type fetchCursor struct {
	walk      workload.FetchWalk
	next, end uint64
}

// warm warms the data accesses of one decoded span in program order, each
// after the fetches of every instruction up to and including its own.
func (f *fetchCursor) warm(w *Warming, acc mem.Batch) {
	h, onData := w.Hier, w.OnData
	walk, next, end := f.walk, f.next, f.end
	for i := range acc {
		a := &acc[i]
		for next <= a.InstrIdx {
			next = fetchRun(h, &walk, next, end)
		}
		if onData != nil {
			onData(a)
		} else {
			h.WarmData(a.Line())
		}
	}
	f.walk, f.next = walk, next
}

// fetchRun warms the fetches of the walk's next run, cut at end, starting
// at instruction next, and returns the instruction after the run. The
// run's first fetch is a full WarmInstr; the rest hit the line it left
// resident, so one TouchN replays them.
func fetchRun(h *cache.Hierarchy, walk *workload.FetchWalk, next, end uint64) uint64 {
	line, k := walk.Next()
	k = min(k, end-next)
	h.WarmInstr(line)
	if k > 1 {
		h.L1I.TouchN(h.L1I.WayIndexOf(line), k-1)
	}
	return next + k
}

// RunVDP executes n instructions under virtualized directed profiling.
// Execution proceeds at near-native speed; each access to a watched page
// and each sampling stop is charged a trigger cost.
//
// The program runs in FillBatch chunks of workload.Chunk instructions, so
// only the memory accesses are materialized. The instruction-count sample
// clock advances by each access's InstrIdx delta, and the instructions
// after the last access are credited when the call returns, so the clock
// carries across calls exactly as a per-instruction count would. Callbacks
// see the program at its chunk's end: they must take positions from the
// access record, and copy what they keep of it.
func (e *Engine) RunVDP(n uint64, cfg *VDPConfig) {
	var triggers, falsePos, sampleStops float64
	every := cfg.SampleEvery
	next := e.Prog.InstrIndex() // first instruction the clock has not counted
	end := next + n
	if e.chunk == nil {
		// Once per engine: most engines never profile.
		e.chunk = make(mem.Batch, 0, workload.Chunk)
	}
	for left := n; left > 0; {
		m := min(left, workload.Chunk)
		left -= m
		e.chunk.Reset()
		e.Prog.FillBatch(m, &e.chunk, nil)
		b := e.chunk
		for i := range b {
			a := &b[i]
			isSample := false
			if every > 0 {
				e.sampleCount += a.InstrIdx + 1 - next
				next = a.InstrIdx + 1
				if e.sampleCount >= every {
					e.sampleCount = 0
					isSample = true
				}
			}
			watchedPage := cfg.WPs != nil && cfg.WPs.WatchedPage(mem.PageOf(a.Addr))
			if isSample {
				sampleStops++
				if cfg.OnSample != nil {
					cfg.OnSample(a)
				}
			}
			if watchedPage {
				triggers++
				if cfg.WPs.WatchedLine(a.Line()) {
					if cfg.OnTrigger != nil {
						cfg.OnTrigger(a)
					}
				} else {
					falsePos++
				}
			}
		}
	}
	if every > 0 {
		e.sampleCount += end - next
	}
	e.charge(KindVDP, float64(n))
	if cfg.TriggersFixed {
		e.Counters.Add("fix/"+KindTrigger, triggers)
		e.Counters.Add("fix/"+KindTriggerFP, falsePos)
		e.Counters.Add("fix/"+KindSampleStop, sampleStops)
	} else {
		e.charge(KindTrigger, triggers)
		e.charge(KindTriggerFP, falsePos)
		e.charge(KindSampleStop, sampleStops)
	}
}

// ChargeDetail records n instructions of detailed (cycle-accurate)
// simulation driven externally by cpu.Core.
func (e *Engine) ChargeDetail(n uint64) {
	e.charge(KindDetail, float64(n))
}
