// Package workload provides deterministic synthetic benchmark programs that
// stand in for the paper's SPEC CPU2006 workloads (see DESIGN.md §2 for the
// substitution rationale).
//
// A Program is an infinite, fully deterministic instruction stream: two
// instances constructed from the same profile and scale produce bit-identical
// sequences. That property is what makes time traveling possible — the
// Scout, the Explorers and the Analyst are separate instances replaying the
// same execution, exactly as the paper's gem5/KVM processes replay the same
// guest.
//
// Each program is composed of memory *streams* whose footprints and access
// patterns are specified at paper scale (bytes, instructions) and divided by
// the configured scale factor, so that reuse-distance spectra keep their
// shape relative to the warm-up windows (which are scaled identically by the
// sampling layer).
package workload

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/mem"
	"repro/internal/stats"
)

// InstrKind classifies a dynamic instruction.
type InstrKind uint8

// Instruction kinds.
const (
	KindALU InstrKind = iota
	KindFP
	KindLoad
	KindStore
	KindBranch
	numKinds
)

// genMem's branchless load/store pick adds a 0/1 flag to KindLoad; both
// guards underflow a uint64 conversion unless KindStore == KindLoad+1.
const (
	_ = uint64(KindStore - KindLoad - 1)
	_ = uint64(KindLoad + 1 - KindStore)
)

// FillInstrs' branchless ALU/FP pick relies on KindFP == KindALU+1 the
// same way.
const (
	_ = uint64(KindFP - KindALU - 1)
	_ = uint64(KindALU + 1 - KindFP)
)

// String returns the kind name.
func (k InstrKind) String() string {
	switch k {
	case KindALU:
		return "alu"
	case KindFP:
		return "fp"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindBranch:
		return "branch"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Instr is one dynamic instruction. For loads and stores, Addr holds the
// effective address and PC the architectural PC of the instruction (the
// per-PC unit that RSW's statistical model works with). FetchLine is the
// instruction-cache line that fetching this instruction touches.
type Instr struct {
	PC        uint64
	Addr      mem.Addr
	FetchLine mem.Line
	Kind      InstrKind
	Taken     bool
	DepDist   uint16 // distance (dynamic instructions) to the producer of this instr's input
	Lat       uint8  // execution latency in cycles (non-memory)
}

// StreamKind selects the address-generation pattern of a stream.
type StreamKind uint8

// Stream kinds.
const (
	// Seq walks the buffer with a fixed stride (in cachelines), wrapping.
	Seq StreamKind = iota
	// Rand touches a uniformly random line of the buffer on each access.
	Rand
	// Chase follows a pseudo-random full-period permutation cycle (pointer
	// chasing): consecutive accesses are data-dependent and page-scattered.
	Chase
)

// StreamSpec describes one memory stream of a profile, at paper scale.
type StreamSpec struct {
	Kind        StreamKind
	Weight      float64 // share of memory accesses routed to this stream
	PaperBytes  uint64  // footprint at paper scale; divided by program scale
	StrideLines uint64  // Seq only: stride in cachelines (>= 1)
	WriteFrac   float64 // fraction of this stream's accesses that are stores
	PCs         int     // number of static load/store PCs attributed to the stream
	// Phase gating (paper-scale instructions): the stream is active only
	// during bursts of PhaseDuty fraction of each PhasePeriod, one burst per
	// entry of PhaseOffsets (each a fraction of the period). PhasePeriod == 0
	// means always active. calculix uses paired bursts to confine its long
	// reuses to a single detailed region (§6.1.2 of the paper).
	PhasePeriod  uint64
	PhaseDuty    float64
	PhaseOffsets []float64
	// Burst is the number of consecutive accesses the stream makes to each
	// line before moving on (word-level spatial locality; default 1). Real
	// workloads touch each 64 B line several times, which is what keeps the
	// number of unique lines per detailed region — the key cachelines — in
	// the low hundreds (the paper reports 151 on average).
	Burst int
	// SpreadLines spaces the stream's logical lines this many cachelines
	// apart (default 1, dense). A spread of 64 puts one line per 4 KiB
	// page, which is how povray's hot data comes to share pages with its
	// long-reuse scene graph — the false-positive pathology of §6.1.
	SpreadLines uint64
	// OverlayOf, when non-zero, lays this stream over the arena of stream
	// index OverlayOf-1 (1-based to keep the zero value inert) instead of
	// allocating its own. Chase streams overlaying a spread stream touch
	// the same pages as its hot lines.
	OverlayOf int
}

// Profile is a complete synthetic benchmark description at paper scale.
type Profile struct {
	Name string
	// Instruction mix.
	MemRatio    float64 // fraction of instructions that access memory
	BranchRatio float64 // fraction of instructions that are branches
	FPFrac      float64 // of non-memory non-branch instructions, FP fraction
	// Branch behaviour: LoopDuty is the mean taken-run length of loop
	// branches (mispredict ~1/duty after training); RandomBranchFrac is the
	// fraction of branch instances that are data-dependent coin flips.
	LoopDuty         int
	RandomBranchFrac float64
	// ILP is the mean register dependence distance; larger values mean more
	// instruction-level parallelism for the out-of-order core to exploit.
	ILP int
	// CodeKiB is the instruction footprint driving L1-I behaviour.
	CodeKiB int
	Streams []StreamSpec
	Seed    uint64
}

// minLines floors every scaled buffer so degenerate profiles stay valid.
const minLines = 16

// streamState is the runtime state of one stream. Field order is by
// access frequency: genMem touches everything down to writeBits on every
// memory access, so those fields share the stream's first cache lines; the
// phase-gating and construction-time fields trail.
type streamState struct {
	pos       uint64
	lastOff   uint64
	burstLeft uint32
	burstLen  uint32
	kind      StreamKind
	baseLine  uint64 // first cacheline of the stream's arena
	lines     uint64 // logical lines (power of two for Chase)
	stride    uint64
	spread    uint64 // physical spacing between logical lines
	pcBase    uint64
	pcCount   uint64
	pcMagic   uint64 // floor(2^64/pcCount)+1: Lemire fastmod magic
	writeBits uint32 // WriteFrac in 16-bit fixed point
	overlay   bool   // shares another stream's arena
	// phase gating, in scaled instructions; bursts are sorted [start, end)
	// intervals within the period
	phasePeriod uint64
	bursts      [][2]uint64
	weight      float64
}

// Program is a deterministic instruction stream generator. Not safe for
// concurrent use; every pipeline pass owns its own instance.
type Program struct {
	prof  *Profile
	scale uint64

	rng      stats.RNG
	randRng  stats.RNG // extra draws for Rand streams, keeps main stream aligned
	instrIdx uint64
	memIdx   uint64

	streams []streamState
	// cumW is the cumulative stream weight table in 16-bit fixed point,
	// rebuilt at phase boundaries; selLUT maps the selector's high byte to
	// the first stream index its scan could land on, so genMem's selection
	// loop starts at (usually exactly) the answer instead of walking from
	// zero on a data-dependent branch every memory access. activeScratch
	// is the rebuild's reusable per-stream workspace (phase edges land
	// mid-hot-loop, so the rebuild must not allocate).
	cumW          []uint32
	selLUT        [256]uint8
	activeScratch []bool
	nextPhaseEdge uint64

	// instruction-kind thresholds in 16-bit fixed point
	thMem, thBranch uint32
	thFP            uint32 // within non-mem non-branch
	// branch slots
	branchSlots []branchSlot
	loopDuty    uint32
	randBrBits  uint32
	// code walk for the I-side
	codeLines uint64
	codePos   uint64
	depSpan   uint32
	depMagic  uint64 // floor(2^64/depSpan)+1: Lemire fastmod magic
	noDepTh   uint32 // of 16: instructions with no input dependence
}

type branchSlot struct {
	pc  uint64
	ctr uint32
}

// codeBaseLine places code far from data arenas.
const codeBaseLine = 1 << 40

// NewProgram instantiates the profile at the given scale factor (use the
// sampling layer's Scale; 1 reproduces paper-scale footprints).
func (p *Profile) NewProgram(scale uint64) *Program {
	if scale == 0 {
		scale = 1
	}
	pr := &Program{
		prof:  p,
		scale: scale,
		thMem: uint32(p.MemRatio * 65536),
		thFP:  uint32(p.FPFrac * 65536),
		// The code footprint scales with everything else so the I-side
		// miss rate is preserved against the scaled L1I.
		codeLines: uint64(p.CodeKiB) * 1024 / mem.LineSize / scale,
		depSpan:   uint32(2*p.ILP - 1),
	}
	pr.thBranch = pr.thMem + uint32(p.BranchRatio*65536)
	if pr.codeLines < 4 {
		pr.codeLines = 4
	}
	if pr.depSpan == 0 {
		pr.depSpan = 1
	}
	pr.depMagic = ^uint64(0)/uint64(pr.depSpan) + 1
	ilp := p.ILP
	if ilp < 1 {
		ilp = 1
	}
	pr.noDepTh = uint32(16 * ilp / (ilp + 2))
	pr.loopDuty = uint32(p.LoopDuty)
	if pr.loopDuty < 2 {
		pr.loopDuty = 2
	}
	pr.randBrBits = uint32(p.RandomBranchFrac * 65536)
	// 16 static branch PCs is enough to exercise the predictor tables.
	pr.branchSlots = make([]branchSlot, 16)
	for i := range pr.branchSlots {
		pr.branchSlots[i].pc = 0x800000 + uint64(i)*24
	}
	// Lay the stream arenas out in disjoint line ranges with page-aligned
	// bases and a one-page guard between them.
	nextBase := uint64(1 << 20)
	pcNext := uint64(0x400000)
	for si, s := range p.Streams {
		lines := s.PaperBytes / mem.LineSize / scale
		if s.Kind == Chase {
			if s.OverlayOf > 0 {
				// Overlay chases must stay inside the host arena.
				lines = floorPow2(lines)
			} else {
				lines = ceilPow2(lines)
			}
		}
		if lines < minLines {
			lines = minLines
		}
		stride := s.StrideLines
		if stride == 0 {
			stride = 1
		}
		spread := s.SpreadLines
		if spread == 0 {
			spread = 1
		}
		base := nextBase
		overlay := false
		if s.OverlayOf > 0 {
			host := s.OverlayOf - 1
			if host < 0 || host >= si {
				panic("workload: OverlayOf must reference an earlier stream")
			}
			hostSt := &pr.streams[host]
			base = hostSt.baseLine
			overlay = true
			// Clamp the overlay's physical span to its host's.
			hostSpan := hostSt.lines * hostSt.spread
			for lines*spread > hostSpan && lines > minLines {
				if s.Kind == Chase {
					lines /= 2
				} else {
					lines = hostSpan / spread
					break
				}
			}
		}
		st := streamState{
			kind:      s.Kind,
			baseLine:  base,
			lines:     lines,
			stride:    stride,
			spread:    spread,
			overlay:   overlay,
			burstLen:  uint32(max(1, s.Burst)),
			pcBase:    pcNext,
			pcCount:   uint64(max(1, s.PCs)),
			pcMagic:   ^uint64(0)/uint64(max(1, s.PCs)) + 1,
			writeBits: uint32(s.WriteFrac * 65536),
			weight:    s.Weight,
		}
		if s.PhasePeriod > 0 {
			st.phasePeriod = s.PhasePeriod / scale
			if st.phasePeriod == 0 {
				st.phasePeriod = 1
			}
			dur := uint64(s.PhaseDuty * float64(st.phasePeriod))
			if dur == 0 {
				dur = 1
			}
			offs := s.PhaseOffsets
			if len(offs) == 0 {
				offs = []float64{0}
			}
			for _, o := range offs {
				start := uint64(o * float64(st.phasePeriod))
				end := start + dur
				if end > st.phasePeriod {
					end = st.phasePeriod
				}
				st.bursts = append(st.bursts, [2]uint64{start, end})
			}
			slices.SortFunc(st.bursts, func(a, b [2]uint64) int {
				switch {
				case a[0] < b[0]:
					return -1
				case a[0] > b[0]:
					return 1
				}
				return 0
			})
		}
		pr.streams = append(pr.streams, st)
		pcNext += st.pcCount * 8
		if !overlay {
			nextBase += lines*spread + mem.LinesPerPage // one guard page
			nextBase = (nextBase + mem.LinesPerPage - 1) &^ uint64(mem.LinesPerPage-1)
		}
	}
	pr.cumW = make([]uint32, len(pr.streams))
	pr.activeScratch = make([]bool, len(pr.streams))
	pr.Reset()
	return pr
}

// Reset rewinds the program to instruction zero; the subsequent stream is
// identical to a freshly constructed instance.
func (pr *Program) Reset() {
	pr.rng = *stats.NewRNG(pr.prof.Seed)
	pr.randRng = *stats.NewRNG(pr.prof.Seed ^ 0xabcdef12345)
	pr.instrIdx = 0
	pr.memIdx = 0
	pr.codePos = 0
	for i := range pr.streams {
		pr.streams[i].pos = 0
		pr.streams[i].burstLeft = 0
		pr.streams[i].lastOff = 0
	}
	for i := range pr.branchSlots {
		pr.branchSlots[i].ctr = 0
	}
	pr.nextPhaseEdge = 0
	pr.rebuildWeights()
}

// Name returns the profile name.
func (pr *Program) Name() string { return pr.prof.Name }

// Profile returns the profile this program was built from.
func (pr *Program) Profile() *Profile { return pr.prof }

// Scale returns the scale factor the program was instantiated with.
func (pr *Program) Scale() uint64 { return pr.scale }

// InstrIndex returns the number of instructions executed so far.
func (pr *Program) InstrIndex() uint64 { return pr.instrIdx }

// MemIndex returns the number of memory accesses executed so far; reuse
// distances are measured in this unit.
func (pr *Program) MemIndex() uint64 { return pr.memIdx }

// rebuildWeights recomputes the cumulative stream-selection table honouring
// the phase gating at the current instruction index, and schedules the next
// rebuild at the nearest phase edge.
func (pr *Program) rebuildWeights() {
	var totalW float64
	next := ^uint64(0)
	active := pr.activeScratch
	for i := range pr.streams {
		st := &pr.streams[i]
		a := true
		if st.phasePeriod > 0 {
			pos := pr.instrIdx % st.phasePeriod
			a = false
			// Distance to the next burst edge (start or end), wrapping.
			edge := st.phasePeriod - pos + st.bursts[0][0]
			for _, b := range st.bursts {
				if pos >= b[0] && pos < b[1] {
					a = true
					edge = b[1] - pos
					break
				}
				if pos < b[0] {
					edge = b[0] - pos
					break
				}
			}
			if e := pr.instrIdx + edge; e < next {
				next = e
			}
		}
		active[i] = a
		if a {
			totalW += st.weight
		}
	}
	pr.nextPhaseEdge = next
	if totalW == 0 {
		// Nothing active: fall back to all streams so the program never
		// stalls; phases are a modulation, not an on/off switch for memory.
		for i := range pr.streams {
			active[i] = true
			totalW += pr.streams[i].weight
		}
	}
	var cum float64
	for i := range pr.streams {
		if active[i] {
			cum += pr.streams[i].weight
		}
		pr.cumW[i] = uint32(cum / totalW * 65536)
	}
	if n := len(pr.cumW); n > 0 {
		pr.cumW[n-1] = 65536
	}
	// Rebuild the selector LUT: entry b holds the scan position for the
	// smallest selector with high byte b, a lower bound for every selector
	// sharing that byte (cumW is non-decreasing). Entries saturate at 255
	// — still a valid lower bound for genMem's scan — so a profile with
	// more than 256 streams degrades gracefully instead of wrapping.
	si := 0
	for b := 0; b < 256; b++ {
		sel := uint32(b) << 8
		for si < len(pr.cumW)-1 && sel >= pr.cumW[si] {
			si++
		}
		lut := si
		if lut > 255 {
			lut = 255
		}
		pr.selLUT[b] = uint8(lut)
	}
}

// Next generates the next dynamic instruction into ins. It always succeeds:
// programs are infinite and the caller decides how far to run.
func (pr *Program) Next(ins *Instr) {
	if pr.instrIdx >= pr.nextPhaseEdge {
		pr.rebuildWeights()
	}
	r := pr.rng.Uint64()
	pr.instrIdx++
	// Advance the code walk: one fetch line per 8 instructions on average
	// models a fetch-block-grained I-side without per-instruction cost.
	pr.codePos++
	if pr.codePos>>3 >= pr.codeLines {
		pr.codePos = 0
	}
	ins.FetchLine = mem.Line(codeBaseLine + pr.codePos>>3)
	// Register dependence: most instructions start fresh chains
	// (immediates, loop counters, loads off loop-invariant bases); the
	// dependence-free fraction grows with the profile's ILP. Without it the
	// timing model strings every load into one transitive chain and CPI
	// explodes far beyond what an 8-wide OoO core with a 192-entry ROB
	// exhibits — the whole point of out-of-order execution is that real
	// chains are short and overlap.
	depBits := uint32(r >> 48)
	if depBits&0xf < pr.noDepTh {
		ins.DepDist = 0
	} else {
		ins.DepDist = 1 + pr.depMod(depBits>>4)
	}
	sel := uint32(r & 0xffff)
	switch {
	case sel < pr.thMem:
		pr.genMem(ins, uint32(r>>16))
	case sel < pr.thBranch:
		pr.genBranch(ins, uint32(r>>16))
	default:
		ins.Addr = 0
		ins.Taken = false
		if uint32(r>>16)&0xffff < pr.thFP {
			ins.Kind = KindFP
			ins.PC = 0x900000 + uint64(r>>32)%64*4
			ins.Lat = 4
		} else {
			ins.Kind = KindALU
			ins.PC = 0xa00000 + uint64(r>>32)%64*4
			ins.Lat = 1
		}
	}
}

// depMod returns x % depSpan via Lemire's fastmod (two multiplies, no
// divide — the dependence-distance draw runs once per instruction on both
// generator paths). Exact because x fits 32 bits; pinned against the %
// operator by TestDepModMatchesModulo.
func (pr *Program) depMod(x uint32) uint16 {
	m, _ := bits.Mul64(pr.depMagic*uint64(x), uint64(pr.depSpan))
	return uint16(m)
}

func (pr *Program) genMem(ins *Instr, rb uint32) {
	sel := rb & 0xffff
	// Start from the LUT's lower bound; the remaining scan resolves only
	// the selectors whose high byte straddles a weight boundary, so the
	// loop branch is almost always not-taken (predictable), where the
	// from-zero scan mispredicted on every random stream pick.
	si := int(pr.selLUT[sel>>8])
	for si < len(pr.cumW)-1 && sel >= pr.cumW[si] {
		si++
	}
	st := &pr.streams[si]
	var lineOff uint64
	if st.burstLeft > 0 {
		// Word-level locality: revisit the current line.
		st.burstLeft--
		lineOff = st.lastOff
	} else {
		switch st.kind {
		case Seq:
			st.pos += st.stride
			if st.pos >= st.lines {
				st.pos -= st.lines
			}
			lineOff = st.pos
		case Rand:
			lineOff, _ = bits.Mul64(pr.randRng.Uint64(), st.lines)
		case Chase:
			// Full-period LCG over a power-of-two range: a ≡ 5 (mod 8), c odd.
			st.pos = (st.pos*6364136223846793005 + 1442695040888963407) & (st.lines - 1)
			lineOff = st.pos
		}
		st.lastOff = lineOff
		st.burstLeft = st.burstLen - 1
	}
	ins.Addr = mem.Addr((st.baseLine + lineOff*st.spread) << mem.LineShift)
	// Exact rb>>16 % pcCount via Lemire's fastmod (two multiplies, no
	// divide): valid because the numerator fits 32 bits. Pinned against
	// the % operator by TestFastmodMatchesModulo.
	pcIdx, _ := bits.Mul64(st.pcMagic*(uint64(rb)>>16), st.pcCount)
	ins.PC = st.pcBase + pcIdx*8
	// Branchless load/store pick (KindStore == KindLoad+1): the write
	// fraction is a per-access coin flip no branch predictor can learn.
	var isStore InstrKind
	if rb>>16&0xffff < st.writeBits {
		isStore = 1
	}
	ins.Kind = KindLoad + isStore
	ins.Lat = 0
	ins.Taken = false
	pr.memIdx++
}

func (pr *Program) genBranch(ins *Instr, rb uint32) {
	slot := &pr.branchSlots[rb%16]
	ins.Kind = KindBranch
	ins.PC = slot.pc
	ins.Addr = 0
	ins.Lat = 1
	if rb>>16 < pr.randBrBits {
		// Data-dependent branch: a coin flip the predictor cannot learn.
		ins.Taken = rb>>31 == 1
		return
	}
	// Loop branch: taken except every loopDuty-th execution (loop exit).
	slot.ctr++
	if slot.ctr >= pr.loopDuty {
		slot.ctr = 0
		ins.Taken = false
	} else {
		ins.Taken = true
	}
}

// Branch is one dynamic branch outcome, in the form the branch predictor
// consumes it.
type Branch struct {
	PC    uint64
	Taken bool
}

// FillBatch executes n instructions, appending every memory access to b as
// a by-value record and, when br is non-nil, every branch outcome to *br,
// each list in program order. Program state evolution is bit-identical to
// n calls of Next — only the observation mechanism differs — so a batched
// pass and a handler-driven pass replay the same execution (pinned by
// TestFillBatchMatchesNext).
//
// It runs the two-phase block loop of Skip and FillInstrs (drawBlock):
// non-memory instructions advance their state without materializing an
// Instr, and no per-instruction branch depends on the instruction kind.
// The second phase generates the block's accesses in program order, each
// stamped with its offset inside the block, then applies the
// branch-counter updates; a nil br costs one check per block.
func (pr *Program) FillBatch(n uint64, b *mem.Batch, br *[]Branch) {
	pr.advanceCode(n)
	var blk block
	var ins Instr
	s := *b // keep the slice header in registers across the loop
	for n > 0 {
		m, nm, nb := pr.drawBlock(n, &blk)
		n -= m
		base := pr.instrIdx - m
		for j, rb := range blk.memRB[:nm] {
			memIdx := pr.memIdx
			pr.genMem(&ins, rb)
			s = append(s, mem.Access{PC: ins.PC, Addr: ins.Addr, Write: ins.Kind == KindStore,
				MemIdx: memIdx, InstrIdx: base + uint64(blk.memOff[j])})
		}
		if br == nil {
			for _, rb := range blk.brRB[:nb] {
				pr.genBranchState(rb)
			}
			continue
		}
		bs := *br
		for _, rb := range blk.brRB[:nb] {
			pr.genBranch(&ins, rb)
			bs = append(bs, Branch{PC: ins.PC, Taken: ins.Taken})
		}
		*br = bs
	}
	*b = s
}

// Chunk is the instruction count of one decode chunk, shared by the
// batched consumers of the program stream: directed profiling (vm.RunVDP,
// Explorer-1) and functional warming (vm.RunFuncWarm) decode FillBatch
// chunks of it, and the timing core (cpu.Core.Run) decodes FillInstrs
// chunks of it into an on-stack array. It equals the two-phase block
// bound, so a chunk is one block unless a phase edge cuts it in two. A
// chunk's access records (10 KiB) or instructions (8 KiB) stay in L1.
const Chunk = 256

// FillInstrs executes len(dst) instructions, writing every one of them to
// dst in order as a by-value record. It is the decode loop of the timing
// core: where FillBatch materializes only the memory accesses (the cache
// and reuse layers observe nothing else), FillInstrs materializes the full
// dynamic instruction stream — the timing model needs the fetch lines,
// dependence distances, kinds and latencies of non-memory instructions
// too. Records and resulting state are exactly those of len(dst) calls of
// Next (TestFillInstrBatchMatchesNext).
//
// It runs the two-phase block loop of Skip and FillBatch (drawBlock). The
// first phase writes, from each instruction's random word and without
// branching on its kind, the fields every kind shares (fillCommon): the
// fetch line, the dependence distance, and the ALU/FP values of Kind, PC,
// Lat, Addr and Taken. The second phase runs genMem over the block's
// memory instructions and genBranch over its branches, each overwriting
// its record's kind-specific fields in place. Every field of every record
// is written, so stale records in a reused array never leak through.
func (pr *Program) FillInstrs(dst []Instr) {
	var blk block
	for len(dst) > 0 {
		m, nm, nb := pr.drawBlock(uint64(len(dst)), &blk)
		ins := dst[:m]
		dst = dst[m:]
		pr.fillCommon(ins, blk.word[:m])
		for j, rb := range blk.memRB[:nm] {
			pr.genMem(&ins[blk.memOff[j]], rb)
		}
		for j, rb := range blk.brRB[:nb] {
			pr.genBranch(&ins[blk.brOff[j]], rb)
		}
	}
}

// fillCommon is FillInstrs' first phase over one block: it walks the code
// and writes every record as Next would for an ALU or FP instruction
// drawing the same word — the fields a memory instruction or a branch
// keeps (fetch line, dependence distance) and the rest, which genMem and
// genBranch overwrite.
func (pr *Program) fillCommon(ins []Instr, words []uint64) {
	period := pr.codeLines << 3
	thFP, noDepTh := pr.thFP, pr.noDepTh
	codePos := pr.codePos
	for i, r := range words {
		codePos++
		if codePos >= period {
			codePos = 0
		}
		depBits := uint32(r >> 48)
		dep := 1 + pr.depMod(depBits>>4)
		if depBits&0xf < noDepTh {
			dep = 0
		}
		// The ALU/FP pick without a branch: KindFP == KindALU+1, and the
		// FP PCs sit 1<<20 below the ALU ones.
		var fp uint64
		if uint32(r>>16)&0xffff < thFP {
			fp = 1
		}
		// Field by field: a composite literal is assembled on the stack
		// and copied out, and the copy stalls on the store forward.
		p := &ins[i]
		p.PC = 0xa00000 - fp<<20 + (r>>32)%64*4
		p.Addr = 0
		p.FetchLine = mem.Line(codeBaseLine + codePos>>3)
		p.Kind = KindALU + InstrKind(fp)
		p.Taken = false
		p.DepDist = dep
		p.Lat = uint8(1 + 3*fp)
	}
	pr.codePos = codePos
}

// genBranchState applies exactly the state updates of genBranch (the loop
// branches' taken-run counters) without producing the instruction.
func (pr *Program) genBranchState(rb uint32) {
	if rb>>16 < pr.randBrBits {
		return
	}
	slot := &pr.branchSlots[rb%16]
	slot.ctr++
	if slot.ctr >= pr.loopDuty {
		slot.ctr = 0
	}
}

// genMemState applies exactly the state updates of genMem (stream pick,
// burst and walk position, the Rand streams' extra draw, the memory index)
// without producing the access.
func (pr *Program) genMemState(rb uint32) {
	sel := rb & 0xffff
	si := int(pr.selLUT[sel>>8])
	for si < len(pr.cumW)-1 && sel >= pr.cumW[si] {
		si++
	}
	st := &pr.streams[si]
	pr.memIdx++
	if st.burstLeft > 0 {
		st.burstLeft--
		return
	}
	switch st.kind {
	case Seq:
		st.pos += st.stride
		if st.pos >= st.lines {
			st.pos -= st.lines
		}
		st.lastOff = st.pos
	case Rand:
		st.lastOff, _ = bits.Mul64(pr.randRng.Uint64(), st.lines)
	case Chase:
		st.pos = (st.pos*6364136223846793005 + 1442695040888963407) & (st.lines - 1)
		st.lastOff = st.pos
	}
	st.burstLeft = st.burstLen - 1
}

// skipBlock bounds one block of the two-phase loop Skip, FillBatch and
// FillInstrs share (drawBlock).
const skipBlock = 256

// block is the scratch of one two-phase block: every instruction's random
// word, the kind-specific bits of its memory and branch instructions (what
// genMem and genBranch take), each list in program order, and each listed
// instruction's offset inside the block.
type block struct {
	word   [skipBlock]uint64
	memRB  [skipBlock]uint32
	memOff [skipBlock]uint32
	brRB   [skipBlock]uint32
	brOff  [skipBlock]uint32
}

// drawBlock is the first phase of the block loop. It takes the next block
// of at most n instructions, cut so that it never straddles a phase edge
// (the stream weights are rebuilt at the edge first), draws the block's
// random words and sorts them, without branching, into blk's memory and
// branch lists. It advances the instruction index past the block and
// returns the block length and the two list lengths; the caller's second
// phase applies the stream and branch-counter updates. The two updates
// touch disjoint state and each list keeps program order, so the split is
// exact. It removes the data-dependent kind dispatch — a coin flip no
// predictor learns — from the per-instruction path.
func (pr *Program) drawBlock(n uint64, blk *block) (m uint64, nm, nb int) {
	if pr.instrIdx >= pr.nextPhaseEdge {
		pr.rebuildWeights()
	}
	m = min(n, pr.nextPhaseEdge-pr.instrIdx, skipBlock)
	pr.instrIdx += m
	// Draw all the words first and sort them in a second loop: two short
	// loops measured faster than one doing both, which ran out of
	// registers. The generator is a local copy, written back once.
	words := blk.word[:m]
	rng := pr.rng
	for i := range words {
		words[i] = rng.Uint64()
	}
	pr.rng = rng
	thMem, thBranch := pr.thMem, pr.thBranch
	for i, r := range words {
		sel := uint32(r & 0xffff)
		// Write every slot unconditionally and advance only the matching
		// list (nm, nb <= i < skipBlock; the masks drop the bounds
		// checks). thMem <= thBranch, so a memory instruction sets both
		// flags and a branch only isBr.
		blk.memRB[nm&(skipBlock-1)] = uint32(r >> 16)
		blk.memOff[nm&(skipBlock-1)] = uint32(i)
		blk.brRB[nb&(skipBlock-1)] = uint32(r >> 16)
		blk.brOff[nb&(skipBlock-1)] = uint32(i)
		isMem, isBr := 0, 0
		if sel < thMem {
			isMem = 1
		}
		if sel < thBranch {
			isBr = 1
		}
		nm += isMem
		nb += isBr - isMem
	}
	return m, nm, nb
}

// advanceCode moves the code walk n instructions ahead in one step: it is
// a plain counter modulo its period, and the block loops observe no fetch
// line.
func (pr *Program) advanceCode(n uint64) {
	period := pr.codeLines << 3
	pr.codePos = (pr.codePos + n%period) % period
}

// FetchWalk replays the instruction-fetch lines of the instructions after
// a program's position, one run of consecutive same-line instructions at
// a time. The code walk is a pure counter (Next's codePos, modulo
// codeLines<<3, one line per 8 positions), so the walk needs no
// instruction record: functional warming, whose block decode observes no
// fetch line, replays the I-side from it exactly.
type FetchWalk struct {
	pos, period uint64 // codePos of the last walked instruction; codeLines<<3
}

// FetchWalk returns the fetch walk of the instructions after the current
// position. It shares no state with the program.
func (pr *Program) FetchWalk() FetchWalk {
	return FetchWalk{pos: pr.codePos, period: pr.codeLines << 3}
}

// Next returns the fetch line of the next run and the run's length: the
// run ends at the line's last slot, so it holds 1 to 8 instructions, the
// first run after a mid-line position being the short one.
func (w *FetchWalk) Next() (line mem.Line, k uint64) {
	p := w.pos + 1
	if p == w.period {
		p = 0
	}
	k = 8 - p&7
	w.pos = p + k - 1
	return mem.Line(codeBaseLine + p>>3), k
}

// Skip advances the program by n instructions without materializing them.
// The resulting state is identical to calling Next n times (pinned by
// TestSkipEquivalence); the engine uses it for virtualized fast-forwarding
// where no one observes the stream. It runs the two-phase block loop of
// drawBlock and builds no record at all: only the state the next
// instruction depends on advances.
func (pr *Program) Skip(n uint64) {
	pr.advanceCode(n)
	var blk block
	for n > 0 {
		m, nm, nb := pr.drawBlock(n, &blk)
		n -= m
		for _, rb := range blk.memRB[:nm] {
			pr.genMemState(rb)
		}
		for _, rb := range blk.brRB[:nb] {
			pr.genBranchState(rb)
		}
	}
}

// Footprint returns the total scaled data footprint in bytes.
func (pr *Program) Footprint() uint64 {
	var lines uint64
	for i := range pr.streams {
		lines += pr.streams[i].lines
	}
	return lines * mem.LineSize
}

func ceilPow2(v uint64) uint64 {
	if v == 0 {
		return 1
	}
	p := uint64(1)
	for p < v {
		p <<= 1
	}
	return p
}

func floorPow2(v uint64) uint64 {
	if v == 0 {
		return 1
	}
	p := uint64(1)
	for p<<1 <= v {
		p <<= 1
	}
	return p
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
