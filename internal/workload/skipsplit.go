package workload

import "sync/atomic"

// A long Skip on two CPUs. Skip counts first and applies the counts once
// at the end, and every count but the Rand streams' last advances is a
// sum over the span. So a long span is cut into pieces that count
// independently: each piece starts from its own generator state (every
// instruction draws exactly one word, so the state is the Skip's start
// state jumped by the piece's offset) and its own stream weights (rebuilt
// from the piece's first instruction index). A piece records its accesses
// per stream and its loop-branch executions per slot, and nothing else:
// what it counts depends on neither the bursts nor the stream positions.
//
// The Rand bookkeeping is the one order-dependent part. Finish walks the
// pieces' counts in program order, follows every Rand stream's burst from
// piece to piece (burstSteps), and finds the last piece in which each Rand
// stream advances. It then counts those pieces again, at most one per Rand
// stream and usually only the last, with the marks on (markRand), from
// the bursts and Rand draws at their start. Recording each block's Rand
// counts instead would make the record grow with the span (78 MB for the
// paper's 10⁹-instruction gap at Scale 1); the re-count costs one piece.

// skipPieceInstrs is the length of one piece of a split Skip: about
// 0.3 ms of counting, so a helper that wakes up late still finds most of
// a long Skip's pieces left. Tests drive the piece path with short pieces
// through splitSkip.
const skipPieceInstrs = 1 << 16

// skipMaxPieces bounds the pieces of one split Skip; a longer Skip takes
// longer pieces, so the record stays small for any span.
const skipMaxPieces = 256

// skipPiece is one piece's counts.
type skipPiece struct {
	cnt []uint64 // accesses per stream
	br  [nBranchSlots]uint64
}

// SkipSplit is one Skip cut into pieces that two goroutines count at once:
// the caller and one helper each call Count, which takes pieces from the
// front until none is left, and the caller then calls Finish. A Program
// reuses one SkipSplit for all its split Skips. Only Count may run on two
// goroutines at once, and nothing else may touch the program until Finish
// returns.
type SkipSplit struct {
	pr         *Program
	helper     *Program // the helper's counting copy (counter)
	at, rng, n uint64   // the Skip's first instruction, main generator state there, length
	pieceLen   uint64
	pieces     []skipPiece
	next       atomic.Int64 // the next piece to take
	// Finish's scratch: each Rand stream's burst count, the last piece it
	// advances in, and a re-counted piece's counts
	left []uint32
	last []int
	cnt  []uint64
}

// SplitSkip begins a Skip of n instructions cut into pieces. The program
// ends as Skip(n) would leave it once every Count has returned and Finish
// has run.
func (pr *Program) SplitSkip(n uint64) *SkipSplit {
	return pr.splitSkip(n, skipPieceInstrs)
}

// splitSkip is SplitSkip with pieces of at least piece instructions.
func (pr *Program) splitSkip(n, piece uint64) *SkipSplit {
	s := pr.split
	if s == nil {
		s = &SkipSplit{pr: pr, helper: pr.counter()}
		pr.split = s
	}
	s.at, s.rng, s.n = pr.instrIdx, pr.rng.State(), n
	s.pieceLen = max(piece, (n+skipMaxPieces-1)/skipMaxPieces, 1)
	k := int((n + s.pieceLen - 1) / s.pieceLen)
	for len(s.pieces) < k {
		s.pieces = append(s.pieces, skipPiece{cnt: make([]uint64, len(pr.streams))})
	}
	s.pieces = s.pieces[:k]
	s.next.Store(0)
	return s
}

// counter returns a copy of the program to count pieces on beside it. It
// shares the streams, which counting only reads, and owns the weight
// tables, which drawBlock rebuilds at phase edges.
func (pr *Program) counter() *Program {
	c := *pr
	c.cumW = make([]uint32, len(pr.cumW))
	c.activeScratch = make([]bool, len(pr.activeScratch))
	c.skipCnt, c.rands, c.split = nil, nil, nil
	return &c
}

// Count counts pieces, taking each next one from the front, until none is
// left. The caller passes helper false; one helper goroutine may run
// Count(true) at the same time.
func (s *SkipSplit) Count(helper bool) {
	c := s.pr
	if helper {
		c = s.helper
	}
	for {
		i := int(s.next.Add(1) - 1)
		if i >= len(s.pieces) {
			return
		}
		p := &s.pieces[i]
		clear(p.cnt)
		p.br = [nBranchSlots]uint64{}
		c.countPiece(s, i, p.cnt, &p.br, 0, false)
	}
}

// countPiece moves pr to the start of piece i of s and counts it with
// countSpan.
func (pr *Program) countPiece(s *SkipSplit, i int, cnt []uint64, br *[nBranchSlots]uint64, draws uint64, marks bool) uint64 {
	off := uint64(i) * s.pieceLen
	pr.rng.SetState(s.rng)
	pr.rng.Jump(off)
	pr.instrIdx = s.at + off
	pr.rebuildWeights()
	return pr.countSpan(min(s.pieceLen, s.n-off), cnt, br, draws, marks)
}

// Finish applies the pieces' counts: the program ends exactly where Skip
// would have left it. Call it once every Count has returned.
func (s *SkipSplit) Finish() {
	pr := s.pr
	pr.advanceCode(s.n)
	cnt := pr.skipCnt
	clear(cnt)
	var br [nBranchSlots]uint64
	pr.resetMarks()
	randStart := pr.randRng
	rands := pr.rands
	s.left = s.left[:0]
	s.last = s.last[:0]
	for _, r := range rands {
		s.left = append(s.left, pr.streams[r.si].burstLeft)
		s.last = append(s.last, -1)
	}
	// Pass 1: the last piece in which each Rand stream advances.
	for i := range s.pieces {
		p := &s.pieces[i]
		for j, r := range rands {
			st := &pr.streams[r.si]
			var adv uint64
			adv, s.left[j] = burstSteps(s.left[j], st.burstLen, p.cnt[r.si])
			if adv > 0 {
				s.last[j] = i
			}
		}
	}
	// Pass 2: sum the counts, following the bursts and the Rand draws, and
	// re-count each piece some Rand stream last advances in, with the
	// marks on, from the bursts and draws at its start.
	for j, r := range rands {
		s.left[j] = pr.streams[r.si].burstLeft
	}
	if len(s.cnt) < len(cnt) {
		s.cnt = make([]uint64, len(cnt))
	}
	var draws uint64
	for i := range s.pieces {
		p := &s.pieces[i]
		if s.lastOf(i) {
			for j, r := range rands {
				pr.streams[r.si].burstLeft = s.left[j]
				rands[j].seen = 0
			}
			var rb [nBranchSlots]uint64
			clear(s.cnt)
			pr.countPiece(s, i, s.cnt, &rb, draws, true)
		}
		for si, c := range p.cnt {
			cnt[si] += c
		}
		for k, c := range p.br {
			br[k] += c
		}
		for j, r := range rands {
			st := &pr.streams[r.si]
			var adv uint64
			adv, s.left[j] = burstSteps(s.left[j], st.burstLen, p.cnt[r.si])
			draws += adv
		}
	}
	for j, r := range rands {
		pr.streams[r.si].burstLeft = s.left[j]
	}
	pr.applySkip(&br, randStart, draws)
	pr.rng.SetState(s.rng)
	pr.rng.Jump(s.n)
	pr.instrIdx = s.at + s.n
	pr.rebuildWeights()
}

// lastOf reports whether piece i holds some Rand stream's last advance.
func (s *SkipSplit) lastOf(i int) bool {
	for _, l := range s.last {
		if l == i {
			return true
		}
	}
	return false
}
