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
//     delivery + handler in the paper). A long RunVDP walk is split in
//     segments, every other one decoded on a helper goroutine whose
//     program Skips the rest (DESIGN.md §9),
//   - detailed simulation is driven by cpu.Core directly; its cost is
//     charged through ChargeDetail.
//
// Reported speeds are derived from the ledger, not host wall-clock: the
// *shape* of every speed figure comes from counted events (instructions
// per mode, watchpoint triggers), and only the per-event constants below
// are calibrated against the paper's absolute numbers (DESIGN.md §5).
package vm

import (
	"runtime"

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
// per-window Clear retains all backing storage. In front of it, a count of
// watched pages per bucket of a page hash answers most checks of an
// unwatched page with one load, without the probe loop: a VDP walk's
// accesses mostly miss the watched pages (DESIGN.md §9, "Unwatched
// pages"). The old map-of-maps representation survives as the reference
// oracle in the tests.
type Watchpoints struct {
	pages mem.FlatMap[mem.Page, uint64]
	n     int
	// inBkt counts the watched pages per bucket of a page hash
	// (wpBucket). A count that reaches 255 stays there until Clear: a
	// bucket may then read occupied with no page in it, never empty with
	// one.
	inBkt [wpBuckets]uint8
}

// wpBucketBits sizes the watched-page filter: a few hundred watched
// pages, a CoolSim walk's or an Explorer's, leave most of its 4 096
// buckets empty, and its 4 KiB stay in L1 beside a walk's chunk.
const (
	wpBucketBits = 12
	wpBuckets    = 1 << wpBucketBits
)

// wpBucket returns page p's bucket: the top bits of a Fibonacci hash.
func wpBucket(p mem.Page) uint64 { return uint64(p) * 0x9E3779B97F4A7C15 >> (64 - wpBucketBits) }

// addPage and dropPage count a page into and out of its bucket.
func (w *Watchpoints) addPage(p mem.Page) {
	if c := &w.inBkt[wpBucket(p)]; *c < 255 {
		*c++
	}
}

func (w *Watchpoints) dropPage(p mem.Page) {
	if c := &w.inBkt[wpBucket(p)]; *c < 255 {
		*c--
	}
}

// mayWatch reports whether page p's bucket holds a watched page: false
// proves p unwatched without probing the page index.
func (w *Watchpoints) mayWatch(p mem.Page) bool { return w.inBkt[wpBucket(p)] != 0 }

// NewWatchpoints returns an empty set.
func NewWatchpoints() *Watchpoints {
	return &Watchpoints{}
}

func lineBit(l mem.Line) uint64 {
	return uint64(1) << (uint64(l) & (mem.LinesPerPage - 1))
}

// Watch protects line l.
func (w *Watchpoints) Watch(l mem.Line) {
	pg := mem.PageOfLine(l)
	p, added := w.pages.Upsert(pg)
	if added {
		w.addPage(pg)
	}
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
		w.dropPage(pg)
	}
}

// WatchedPage reports whether any line of page p is watched.
func (w *Watchpoints) WatchedPage(p mem.Page) bool {
	return w.mayWatch(p) && w.pages.Ptr(p) != nil
}

// WatchedLine reports whether l itself is watched.
func (w *Watchpoints) WatchedLine(l mem.Line) bool {
	p := w.pages.Ptr(mem.PageOfLine(l))
	return p != nil && *p&lineBit(l) != 0
}

// Count returns the number of watched lines.
func (w *Watchpoints) Count() int { return w.n }

// empty reports whether no line is watched, from the page index itself.
func (w *Watchpoints) empty() bool { return w.pages.Len() == 0 }

// Clear removes all watchpoints, retaining the backing storage so the
// Explorer's per-window re-arming never reallocates.
func (w *Watchpoints) Clear() {
	w.pages.Reset()
	w.n = 0
	clear(w.inBkt[:])
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
	helper      *workload.Program // the split RunVDP's helper program, likewise
	helped      uint64            // odd segments the split RunVDP walks' helper decoded
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
// A walk of pipeMinInstrs or more is pipelined (runPipelined) when a
// hand-off ring is free (at most one exists per two CPUs): a helper
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
//
// It panics when next has reached end: an access at or past the walk's end
// means a decode produced an instruction the walk does not hold, and the
// fetch loops would otherwise spin on a zero-length run.
func fetchRun(h *cache.Hierarchy, walk *workload.FetchWalk, next, end uint64) uint64 {
	if next >= end {
		panic("vm: fetch past the walk's end: a decoded access lies outside the walk")
	}
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
// carries across calls exactly as a per-instruction count would.
//
// While no watchpoint is armed, nothing before the next sampling stop is
// observed: the walk Skips to the instruction before it (to the walk's end
// when SampleEvery is 0) and advances the clock by the skipped span
// (skipIdle). No trigger can occur and the callbacks run only at stops,
// so every counter and callback is what decoding the span would give.
//
// A walk of vdpSplitMin or more instructions, when the process may run
// more than one goroutine at once (GOMAXPROCS > 1) and a hand-off ring is
// free, is split (runVDPSplit): a helper goroutine on a program of its own
// decodes odd segments of the walk while the caller profiles the rest.
// Every callback runs on the caller's goroutine, in program order, either
// way. The callbacks follow OnData's rule: they must not touch e.Prog,
// which a split walk moves segment by segment, so they take positions from
// the access record, and copy what they keep of it.
func (e *Engine) RunVDP(n uint64, cfg *VDPConfig) {
	v := vdpScan{cfg: cfg, next: e.Prog.InstrIndex()}
	end := v.next + n
	if n >= vdpSplitMin && runtime.GOMAXPROCS(0) > 1 {
		e.runVDPSplit(n, &v)
	} else {
		e.runVDPChunked(n, &v)
	}
	if cfg.SampleEvery > 0 {
		e.sampleCount += end - v.next
	}
	e.charge(KindVDP, float64(n))
	if cfg.TriggersFixed {
		e.Counters.Add("fix/"+KindTrigger, v.triggers)
		e.Counters.Add("fix/"+KindTriggerFP, v.falsePos)
		e.Counters.Add("fix/"+KindSampleStop, v.sampleStops)
	} else {
		e.charge(KindTrigger, v.triggers)
		e.charge(KindTriggerFP, v.falsePos)
		e.charge(KindSampleStop, v.sampleStops)
	}
}

// vdpScan is one RunVDP walk's observation state: its configuration, the
// first instruction the sample clock has not counted, and the stops so
// far.
type vdpScan struct {
	cfg                             *VDPConfig
	next                            uint64
	triggers, falsePos, sampleStops float64
}

// idle reports whether no watchpoint is armed.
func (v *vdpScan) idle() bool { return v.cfg.WPs == nil || v.cfg.WPs.empty() }

// runVDPChunked is the serial walk: decode a chunk, profile it, and skip
// what nobody watches.
func (e *Engine) runVDPChunked(n uint64, v *vdpScan) {
	if e.chunk == nil {
		// Once per engine: most engines never profile.
		e.chunk = make(mem.Batch, 0, workload.Chunk)
	}
	end := e.Prog.InstrIndex() + n
	for {
		if v.idle() {
			e.skipIdle(v, end)
		}
		at := e.Prog.InstrIndex()
		if at == end {
			return
		}
		e.chunk.Reset()
		e.Prog.FillBatch(min(end-at, workload.Chunk), &e.chunk, nil)
		e.scanVDP(v, e.chunk)
	}
}

// skipIdle Skips an idle walk to the first instruction a sampling stop may
// land on, or to end if that comes first. The clock has counted up to
// v.next; a stop lands on the first access whose instruction brings the
// count to SampleEvery, which no access before instruction
// v.next+SampleEvery−sampleCount−1 does. The clock is a telescoping sum of
// instruction deltas, so it advances by the skipped span.
func (e *Engine) skipIdle(v *vdpScan, end uint64) {
	to := end
	if every := v.cfg.SampleEvery; every > 0 {
		if e.sampleCount+1 >= every {
			return // the next access stops
		}
		to = min(to, v.next+every-e.sampleCount-1)
	}
	at := e.Prog.InstrIndex()
	if to <= at {
		return
	}
	e.Prog.Skip(to - at)
	if v.cfg.SampleEvery > 0 {
		e.sampleCount += to - v.next
		v.next = to
	}
}

// scanVDP profiles one decoded span in program order: it advances the
// sample clock, and delivers and counts the sampling stops and the
// watched-page triggers.
func (e *Engine) scanVDP(v *vdpScan, b mem.Batch) {
	cfg := v.cfg
	every, next := cfg.SampleEvery, v.next
	var triggers, falsePos, sampleStops float64
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
		// mayWatch first, spelled out: WatchedPage itself is too large to
		// inline, and most accesses touch no watched page.
		pg := mem.PageOf(a.Addr)
		watchedPage := cfg.WPs != nil && cfg.WPs.mayWatch(pg) && cfg.WPs.pages.Ptr(pg) != nil
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
	v.next = next
	v.triggers += triggers
	v.falsePos += falsePos
	v.sampleStops += sampleStops
}

// helperProgram returns the split RunVDP's helper program: one of the
// engine's profile and scale, built on first use and rebuilt if e.Prog
// changes profile. runVDPSplit seeks it to each walk's start.
func (e *Engine) helperProgram() *workload.Program {
	if h := e.helper; h == nil || h.Profile() != e.Prog.Profile() || h.Scale() != e.Prog.Scale() {
		e.helper = e.Prog.Profile().NewProgram(e.Prog.Scale())
	}
	return e.helper
}

// ChargeDetail records n instructions of detailed (cycle-accurate)
// simulation driven externally by cpu.Core.
func (e *Engine) ChargeDetail(n uint64) {
	e.charge(KindDetail, float64(n))
}
