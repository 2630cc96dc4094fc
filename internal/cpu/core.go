package cpu

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/workload"
)

// Config sizes the out-of-order core (Table 1: 192-entry ROB, 64-entry
// IQ/LQ/SQ, 8-wide issue). The IQ/LQ/SQ bounds are folded into the ROB and
// MSHR constraints in this dependence-timing model; they are kept in the
// configuration for completeness and reporting.
type Config struct {
	Width             int
	ROB               int
	IQ, LQ, SQ        int
	MispredictPenalty uint64
	BP                BPConfig
}

// DefaultConfig matches Table 1.
func DefaultConfig() Config {
	return Config{Width: 8, ROB: 192, IQ: 64, LQ: 64, SQ: 64,
		MispredictPenalty: 14, BP: DefaultBPConfig()}
}

// Upper bounds Validate enforces on the sized structures: the ROB
// completion ring and each predictor table are allocated at their
// configured size, so an unbounded entry count would let one config ask
// for gigabytes. Both sit far above any real machine (Table 1: 192 and
// 8 k).
const (
	maxROB       = 1 << 16
	maxBPEntries = 1 << 20
)

// Validate checks the bounds the timing core relies on: a fetch width of
// at least 1, a ROB of 1..maxROB entries (Run indexes the completion ring
// by ROB slot) and predictor tables of 1..maxBPEntries entries (the
// predictor indexes every table modulo its size).
func (c Config) Validate() error {
	if c.Width < 1 {
		return fmt.Errorf("CPU.Width %d must be >= 1", c.Width)
	}
	if c.ROB < 1 || c.ROB > maxROB {
		return fmt.Errorf("CPU.ROB %d outside [1, %d]", c.ROB, maxROB)
	}
	for _, t := range []struct {
		name string
		n    int
	}{
		{"LocalEntries", c.BP.LocalEntries},
		{"GlobalEntries", c.BP.GlobalEntries},
		{"ChoiceEntries", c.BP.ChoiceEntries},
		{"BTBEntries", c.BP.BTBEntries},
	} {
		if t.n < 1 || t.n > maxBPEntries {
			return fmt.Errorf("CPU.BP.%s %d outside [1, %d]", t.name, t.n, maxBPEntries)
		}
	}
	return nil
}

// Stats aggregates one simulated interval.
type Stats struct {
	Instructions uint64
	Cycles       uint64
	MemAccesses  uint64
	L1DHits      uint64
	MSHRHits     uint64 // delayed hits: miss on a line already in flight
	LLCHits      uint64
	MemServed    uint64
	WarmingHits  uint64
	BrLookups    uint64
	BrMispred    uint64
}

// CPI returns cycles per instruction.
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// LukewarmHitRate is the fraction of data accesses served as L1 hits —
// the statistic the paper quotes for the lukewarm cache (avg 93.5%).
func (s Stats) LukewarmHitRate() float64 {
	if s.MemAccesses == 0 {
		return 0
	}
	return float64(s.L1DHits) / float64(s.MemAccesses)
}

// HitOrDelayedRate additionally counts MSHR hits (paper: avg 96.7%).
func (s Stats) HitOrDelayedRate() float64 {
	if s.MemAccesses == 0 {
		return 0
	}
	return float64(s.L1DHits+s.MSHRHits) / float64(s.MemAccesses)
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Instructions += o.Instructions
	s.Cycles += o.Cycles
	s.MemAccesses += o.MemAccesses
	s.L1DHits += o.L1DHits
	s.MSHRHits += o.MSHRHits
	s.LLCHits += o.LLCHits
	s.MemServed += o.MemServed
	s.WarmingHits += o.WarmingHits
	s.BrLookups += o.BrLookups
	s.BrMispred += o.BrMispred
}

// mshrRing is a fixed-capacity sorted ring of outstanding-miss completion
// times — the multiset behind the MSHR occupancy check. It replaces the
// earlier binary min-heap: occupancy can never exceed the L1D MSHR count
// (Run pops the oldest entry before pushing when full), completion times
// arrive in nearly ascending order (issue cycles are close to monotone and
// there are only a few distinct latencies), so a sorted insertion is one
// comparison in the common case while min and drain become O(1) ring-head
// pops with no sift. Multiset semantics are identical to the heap's, so
// timing results are unchanged.
type mshrRing struct {
	buf  []uint64
	head int // index of the minimum
	n    int
}

func (r *mshrRing) init(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	r.buf = make([]uint64, capacity)
	r.head, r.n = 0, 0
}

func (r *mshrRing) min() uint64 { return r.buf[r.head] }

func (r *mshrRing) popMin() {
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
}

// push inserts x keeping ascending order from head. The caller keeps
// occupancy below capacity (Run's MSHR-full stall pops first).
func (r *mshrRing) push(x uint64) {
	size := len(r.buf)
	i := r.n
	for i > 0 {
		j := r.head + i - 1
		if j >= size {
			j -= size
		}
		if r.buf[j] <= x {
			break
		}
		k := j + 1
		if k == size {
			k = 0
		}
		r.buf[k] = r.buf[j]
		i--
	}
	j := r.head + i
	if j >= size {
		j -= size
	}
	r.buf[j] = x
	r.n++
}

// Core is the out-of-order dependence-timing model. Per instruction it
// computes a dispatch cycle (bounded by fetch width, ROB occupancy and
// branch redirects) and a completion cycle (bounded by register
// dependences and memory latency with MSHR-limited parallelism); the
// elapsed cycle count of an interval is the critical path through those
// constraints. This is the interval-model style of timing simulation that
// Sniper popularized, and it preserves exactly the effects statistical
// warming must predict: latency differences between cache levels,
// MSHR-limited overlap, and branch-misprediction serialization.
// Field order is a deliberate host-cache layout, not cosmetics. The
// per-instruction hot cluster — the fields Run reads or writes on
// every memory instruction after hoisting the scheduling state into
// locals — sits contiguously at offset 0, spanning exactly three 64-byte
// host lines instead of the four-plus it straddled in declaration order.
// Per-call fields (read/written once per Run call) follow, and the
// per-run configuration is last. The trailing pad rounds the struct to
// 384 bytes, a multiple of the host line size that is also its own malloc
// size class, so two cores allocated back-to-back and driven from
// different host threads (independent matrix cells) can never false-share
// a line.
type Core struct {
	// --- hot: touched per memory instruction ---
	mshrFree    mshrRing
	outstanding mem.FlatMap[mem.Line, uint64] // line -> completion cycle
	outMin      uint64                        // lower bound on the outstanding table's minimum completion time
	mshrs       int                           // L1D MSHR count, resolved once from the hierarchy config
	pruneLen    int                           // outstanding-table occupancy that triggers a prune
	// acc is the scratch record handed to the hierarchy's miss path. It
	// lives in the (heap-resident) core rather than on the Run stack
	// because the oracle interface call inside AccessDataMiss makes a
	// stack-local record escape — one heap allocation per Run call.
	acc mem.Access

	// --- warm: read/written once per Run call (locals inside it) ---
	cycle        uint64 // dispatch front cycle (fixed point: subcycles via width counting)
	widthCount   int
	fetchStall   uint64 // cycle until which the front-end is squashed
	robSlot      int    // completion-ring slot of the next instruction (wraps at ROB)
	maxComplete  uint64
	completion   []uint64 // ring buffer of the last ROB completion times
	pruneScratch []mem.Line

	// --- cold: per-run configuration ---
	Cfg  Config
	BP   *BranchPred
	Hier *cache.Hierarchy

	_ [8]byte // round to 384 = 6 host lines = own size class
}

// NewCore builds a core over the given (already constructed) hierarchy and
// predictor; both persist across Run calls so warming carries over.
func NewCore(cfg Config, hier *cache.Hierarchy, bp *BranchPred) *Core {
	if bp == nil {
		bp = NewBranchPred(cfg.BP)
	}
	mshrs := 8
	if hier != nil && hier.Cfg.L1D.MSHRs > 0 {
		mshrs = hier.Cfg.L1D.MSHRs
	}
	c := &Core{
		Cfg:        cfg,
		BP:         bp,
		Hier:       hier,
		completion: make([]uint64, cfg.ROB),
		mshrs:      mshrs,
	}
	c.mshrFree.init(mshrs)
	c.pruneLen = 4 * mshrs
	c.outMin = ^uint64(0)
	c.outstanding.Grow(c.pruneLen)
	c.pruneScratch = make([]mem.Line, 0, 8*c.pruneLen)
	return c
}

// Run executes n instructions of prog through the timing model and returns
// the interval's statistics. Microarchitectural state (caches, predictor,
// in-flight misses) persists across calls. One call is one interval: it
// ends by advancing the dispatch clock to the interval's critical path, so
// splitting n over several calls is not equivalent to one call.
//
// The program is decoded in chunks of workload.Chunk instructions into an
// on-stack array and each chunk is timed in a second pass. The decode,
// Program.FillInstrs, runs the generator's two-phase block loop: it writes
// the fields every instruction kind shares without branching on the kind,
// then fills in the memory accesses and branches from per-block lists,
// bit-identical to a loop over Next. The split is legal because
// instruction generation is open loop: the program stream never depends
// on timing state, so decoding a chunk ahead of timing it observes
// nothing different. The hot scheduling state (cycle, width, fetch stall,
// ROB head, max completion) lives in locals for the whole call and is
// written back once at its end.
//
// The per-instruction I-fetch is hoisted behind a fetch-line memo. The
// memo is exact, not approximate: consecutive instructions on one fetch
// line cannot miss — the first fetch left the line resident (hit or
// install) and most recently used, and nothing else touches the private
// L1I during the call — so the memo replays the hit's state updates (tick,
// recency, hit count) on the remembered way via cache.Touch instead of
// re-running the lookup. The memo spans the call's chunks and starts
// invalid on every call, so state mutated between calls (functional
// I-side warming, a checkpoint restore) cannot invalidate it.
func (c *Core) Run(prog *workload.Program, n uint64) Stats {
	var st Stats
	st.Instructions = n
	memIdx := prog.MemIndex()

	mshrs := c.mshrs
	hier := c.Hier
	l1i := hier.L1I
	l1d := hier.L1D
	l1iHitLat := hier.Cfg.L1I.HitLat
	l1dHitLat := uint64(hier.Cfg.L1D.HitLat)
	rob := c.Cfg.ROB
	width := c.Cfg.Width
	completion := c.completion
	cycle := c.cycle
	widthCount := c.widthCount
	fetchStall := c.fetchStall
	slot := c.robSlot
	maxComplete := c.maxComplete
	startCycle := cycle

	lastLine := mem.Line(0)
	lastWay := -1

	var buf [workload.Chunk]workload.Instr
	for left := n; left > 0; {
		chunk := buf[:min(left, workload.Chunk)]
		left -= uint64(len(chunk))
		instrBase := prog.InstrIndex()
		prog.FillInstrs(chunk)
		for k := range chunk {
			ins := &chunk[k]

			// Front end: width, redirect and ROB constraints.
			widthCount++
			if widthCount >= width {
				widthCount = 0
				cycle++
			}
			if fetchStall > cycle {
				cycle = fetchStall
				widthCount = 0
			}
			// Instruction fetch, memoized per fetch line (guaranteed L1I hits
			// replay through Touch; see the function comment).
			if ins.FetchLine == lastLine && lastWay >= 0 {
				l1i.Touch(lastWay)
			} else {
				if fl := hier.AccessInstr(ins.FetchLine); fl > l1iHitLat {
					cycle += uint64(fl - l1iHitLat)
				}
				lastLine = ins.FetchLine
				lastWay = l1i.WayIndexOf(ins.FetchLine)
			}
			// ROB: cannot dispatch past the completion of the instruction that
			// frees our slot.
			if completion[slot] > cycle {
				cycle = completion[slot]
				widthCount = 0
			}
			dispatch := cycle

			// Register dependence.
			ready := dispatch
			dep := int(ins.DepDist)
			if dep >= 1 && dep <= rob {
				prodSlot := slot - dep
				if prodSlot < 0 {
					prodSlot += rob
				}
				if t := completion[prodSlot]; t > ready {
					ready = t
				}
			}

			var complete uint64
			switch ins.Kind {
			case workload.KindLoad, workload.KindStore:
				st.MemAccesses++
				line := mem.LineOf(ins.Addr)
				// Drain MSHRs whose miss has returned.
				for c.mshrFree.n > 0 && c.mshrFree.min() <= ready {
					c.mshrFree.popMin()
				}
				if t, inFlight := c.outstanding.Get(line); inFlight && t > ready {
					// Delayed hit: coalesce onto the existing MSHR.
					st.MSHRHits++
					complete = t
				} else {
					if inFlight {
						c.outstanding.Delete(line)
					}
					// Inlined L1D-hit fast path: replays exactly AccessData's
					// hit half (access count, L1D lookup) without building the
					// access record — the record only feeds the miss tail
					// (oracle, prefetcher), which AccessDataMiss runs.
					hier.DataAccesses++
					if out, _, _ := l1d.Lookup(line); out == cache.Hit {
						st.L1DHits++
						complete = ready + l1dHitLat
					} else {
						c.acc = mem.Access{PC: ins.PC, Addr: ins.Addr,
							Write: ins.Kind == workload.KindStore, MemIdx: memIdx, InstrIdx: instrBase + uint64(k)}
						r := hier.AccessDataMiss(&c.acc, line)
						if r.WarmingHit {
							st.WarmingHits++
						}
						switch r.Served {
						case cache.LevelL1:
							st.L1DHits++
						case cache.LevelLLC:
							st.LLCHits++
						default:
							st.MemServed++
						}
						issue := ready
						if r.Served != cache.LevelL1 {
							// Allocate an MSHR; stall issue if none free.
							if c.mshrFree.n >= mshrs {
								if t := c.mshrFree.min(); t > issue {
									issue = t
								}
								c.mshrFree.popMin()
							}
							complete = issue + uint64(r.Latency)
							c.mshrFree.push(complete)
							c.track(line, complete, ready)
						} else {
							complete = issue + uint64(r.Latency)
						}
					}
				}
				memIdx++
				if ins.Kind == workload.KindStore {
					// Stores retire through the store buffer; they occupy the
					// MSHR (modeled above) but do not stall dependents.
					complete = ready + 1
				}
			case workload.KindBranch:
				complete = ready + uint64(ins.Lat)
				st.BrLookups++
				if !c.BP.PredictAndUpdate(ins.PC, ins.Taken) {
					st.BrMispred++
					// Front end squashed until the branch resolves.
					if r := complete + c.Cfg.MispredictPenalty; r > fetchStall {
						fetchStall = r
					}
				}
			default:
				complete = ready + uint64(ins.Lat)
			}

			completion[slot] = complete
			if slot++; slot == rob {
				slot = 0
			}
			if complete > maxComplete {
				maxComplete = complete
			}
		}
	}
	end := cycle
	if maxComplete > end {
		end = maxComplete
	}
	st.Cycles = end - startCycle
	// Advance the dispatch clock so the next interval starts after this
	// interval's critical path.
	c.cycle = end
	c.widthCount = widthCount
	c.fetchStall = fetchStall
	c.robSlot = slot
	c.maxComplete = maxComplete
	return st
}

// RunReference is the per-instruction oracle of Run: it times the same n
// instructions one Program.Next at a time, through the unspecialized
// hierarchy calls (AccessInstr on every fetch, AccessData on every data
// access), keeping the scheduling state in the core's fields. Statistics
// and every bit of core, hierarchy and predictor state are identical to
// Run's (TestRunBatchMatchesRun); it has no production caller and exists
// so the tests here and the co-run oracle in internal/multiprog can replay
// the timing model without the chunked engine's specializations.
func (c *Core) RunReference(prog *workload.Program, n uint64) Stats {
	var st Stats
	st.Instructions = n
	mshrs := c.mshrs
	startCycle := c.cycle
	var ins workload.Instr
	for i := uint64(0); i < n; i++ {
		memIdx := prog.MemIndex()
		instrIdx := prog.InstrIndex()
		prog.Next(&ins)

		// Front end: width, redirect and ROB constraints.
		c.widthCount++
		if c.widthCount >= c.Cfg.Width {
			c.widthCount = 0
			c.cycle++
		}
		if c.fetchStall > c.cycle {
			c.cycle = c.fetchStall
			c.widthCount = 0
		}
		// Instruction fetch: an I-side miss stalls the front end.
		if fl := c.Hier.AccessInstr(ins.FetchLine); fl > c.Hier.Cfg.L1I.HitLat {
			c.cycle += uint64(fl - c.Hier.Cfg.L1I.HitLat)
		}
		// ROB: cannot dispatch past the completion of the instruction that
		// frees our slot.
		slot := c.robSlot
		if c.completion[slot] > c.cycle {
			c.cycle = c.completion[slot]
			c.widthCount = 0
		}
		dispatch := c.cycle

		// Register dependence.
		ready := dispatch
		dep := int(ins.DepDist)
		if dep >= 1 && dep <= c.Cfg.ROB {
			prodSlot := slot - dep
			if prodSlot < 0 {
				prodSlot += c.Cfg.ROB
			}
			if t := c.completion[prodSlot]; t > ready {
				ready = t
			}
		}

		var complete uint64
		switch ins.Kind {
		case workload.KindLoad, workload.KindStore:
			st.MemAccesses++
			line := mem.LineOf(ins.Addr)
			// Drain MSHRs whose miss has returned.
			for c.mshrFree.n > 0 && c.mshrFree.min() <= ready {
				c.mshrFree.popMin()
			}
			if t, inFlight := c.outstanding.Get(line); inFlight && t > ready {
				// Delayed hit: coalesce onto the existing MSHR.
				st.MSHRHits++
				complete = t
			} else {
				if inFlight {
					c.outstanding.Delete(line)
				}
				c.acc = mem.Access{PC: ins.PC, Addr: ins.Addr,
					Write: ins.Kind == workload.KindStore, MemIdx: memIdx, InstrIdx: instrIdx}
				r := c.Hier.AccessData(&c.acc)
				if r.WarmingHit {
					st.WarmingHits++
				}
				switch r.Served {
				case cache.LevelL1:
					st.L1DHits++
				case cache.LevelLLC:
					st.LLCHits++
				default:
					st.MemServed++
				}
				issue := ready
				if r.Served != cache.LevelL1 {
					// Allocate an MSHR; stall issue if none free.
					if c.mshrFree.n >= mshrs {
						if t := c.mshrFree.min(); t > issue {
							issue = t
						}
						c.mshrFree.popMin()
					}
					complete = issue + uint64(r.Latency)
					c.mshrFree.push(complete)
					c.track(line, complete, ready)
				} else {
					complete = issue + uint64(r.Latency)
				}
			}
			if ins.Kind == workload.KindStore {
				// Stores retire through the store buffer; they occupy the
				// MSHR (modeled above) but do not stall dependents.
				complete = ready + 1
			}
		case workload.KindBranch:
			complete = ready + uint64(ins.Lat)
			st.BrLookups++
			if !c.BP.PredictAndUpdate(ins.PC, ins.Taken) {
				st.BrMispred++
				// Front end squashed until the branch resolves.
				if r := complete + c.Cfg.MispredictPenalty; r > c.fetchStall {
					c.fetchStall = r
				}
			}
		default:
			complete = ready + uint64(ins.Lat)
		}

		c.completion[slot] = complete
		if slot++; slot == c.Cfg.ROB {
			slot = 0
		}
		c.robSlot = slot
		if complete > c.maxComplete {
			c.maxComplete = complete
		}
	}
	end := c.cycle
	if c.maxComplete > end {
		end = c.maxComplete
	}
	st.Cycles = end - startCycle
	// Advance the dispatch clock so the next interval starts after this
	// interval's critical path.
	c.cycle = end
	return st
}

// inFlightPerMSHR sizes the in-flight table's cap per L1D MSHR. A store
// retires at ready+1, so an MSHR-full stall delays its issue but never
// dispatch: a run of store misses keeps adding entries whose completion
// lies beyond every later ready cycle, which no prune can drop. Loads cannot
// do that (each holds its ROB slot until it completes), and the suite peaks
// at 37 entries against the cap of 512 at the default 8 MSHRs, so the cap
// binds only on store-miss storms.
const inFlightPerMSHR = 64

// track records the miss on line, completing at complete, in the
// in-flight table, then prunes it when it is over its prune threshold. A
// miss that finds the table at its cap is not recorded: a later access to
// its line finds the line in the L1D, where the miss installed it, rather
// than coalescing onto the miss. Run and RunReference share this policy.
func (c *Core) track(line mem.Line, complete, ready uint64) {
	if c.outstanding.Len() < inFlightPerMSHR*c.mshrs {
		c.outstanding.Put(line, complete)
		if complete < c.outMin {
			c.outMin = complete
		}
	}
	if c.outstanding.Len() > c.pruneLen && c.outMin <= ready {
		c.pruneOutstanding(ready)
	}
}

// pruneOutstanding drops completed in-flight entries (bounded table size).
// The trigger threshold and the t <= ready predicate are part of observable
// behavior, not just capacity management: an entry with completion time in
// (dispatch, ready] that the prune drops would otherwise still be eligible
// for a delayed hit at a later access whose ready cycle dips below t, so
// changing when or what this prunes shifts golden figures (measured: lbm's
// Fig 14 CPI moves in the fourth digit under a dispatch-cycle predicate).
// Run and its oracle RunReference therefore share this exact policy.
//
// What IS free is skipping a prune that would remove nothing — the table is
// unchanged either way. The callers' outMin guard exploits that: outMin is
// a lower bound on the table's minimum completion time (tightened on every
// Put, recomputed exactly here), so outMin > ready proves every entry has
// t > ready and the scan is a no-op. Under a miss burst the table sits
// full of genuinely in-flight lines and the earlier unconditional policy
// rescanned all of them on every miss; the guard turns that quadratic edge
// into one comparison while leaving the sequence of effective prunes —
// and therefore every result bit — untouched.
// The collect-then-delete shape is a cost choice: deleting inside the scan
// would need a whole-table rescan after every deleting pass, because a
// backward shift can move a survivor behind the scan position. The
// survivor scan doubles as the exact recomputation of outMin.
func (c *Core) pruneOutstanding(now uint64) {
	dead := c.pruneScratch[:0]
	min := ^uint64(0)
	c.outstanding.Range(func(l mem.Line, t uint64) bool {
		if t <= now {
			dead = append(dead, l)
		} else if t < min {
			min = t
		}
		return true
	})
	for _, l := range dead {
		c.outstanding.Delete(l)
	}
	c.pruneScratch = dead[:0]
	c.outMin = min
}
