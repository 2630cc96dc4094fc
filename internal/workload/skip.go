package workload

import (
	"math/bits"

	"repro/internal/stats"
)

// Closed-form fast-forward. Skip observes nothing, and every piece of
// program state but the stream pick is either a counter or a generator
// whose n-th step has a closed form:
//
//   - a stream's burst count and its number of advances follow from how
//     many accesses it took (burstSteps),
//   - a Seq stream's position moves by a modular add per advance (seqJump),
//     a Chase stream's by an LCG step (chaseJump, O(log n)),
//   - the Rand generator is splitmix64, whose state after n draws is one
//     multiply-add away (stats.RNG.Jump), so a Rand stream's lastOff is the
//     draw at its last advance — found by its index among the Skip's Rand
//     draws, not by making the draws,
//   - a loop-branch counter is its executions modulo the loop duty, and the
//     memory index the sum of the accesses.
//
// So Skip draws and classifies the random words block by block, as
// drawBlock does for every consumer, counts the accesses per stream and the
// loop-branch executions per slot, and applies the counts once at the end.
// The one order-dependent quantity is the index of each Rand stream's last
// draw when two Rand streams advance in the same block; Skip then re-walks
// that block alone (lastDraw).

// randMark is one Rand stream's bookkeeping during a Skip: its accesses
// counted so far, and the block of its last advance.
type randMark struct {
	si   int    // stream index
	seen uint64 // the stream's accesses before the current block
	// The block of the stream's last advance in this Skip; m == 0 until
	// the stream advances.
	rng    uint64 // main generator state at the block's start
	at     uint64 // instruction index at the block's start
	m      uint64 // block length
	before uint64 // the Skip's Rand draws before the block
	adv    uint64 // the stream's advances in the block
	shared bool   // another Rand stream advanced in the block too
	// bursts holds every Rand stream's burstLeft at the block's start
	// (indexed like Program.rands) when shared: what lastDraw re-walks
	// the block from.
	bursts []uint32
	// scratch: the stream's advances in the current block and the burst
	// count it ends the block with
	blkAdv uint64
	blkEnd uint32
}

// Skip advances the program by n instructions without materializing them.
// The resulting state is identical to calling Next n times (pinned by
// TestSkipEquivalence and FuzzSkipMatchesNext); the engine uses it for
// virtualized fast-forwarding where no one observes the stream. It counts
// instead of walking: see the closed form above.
func (pr *Program) Skip(n uint64) {
	pr.advanceCode(n)
	cnt := pr.skipCnt
	clear(cnt)
	pr.resetMarks()
	randStart := pr.randRng
	var brCnt [nBranchSlots]uint64
	draws := pr.countSpan(n, cnt, &brCnt, 0, true)
	pr.applySkip(&brCnt, randStart, draws)
}

// resetMarks forgets every Rand stream's last advance before a Skip.
func (pr *Program) resetMarks() {
	for i := range pr.rands {
		pr.rands[i].seen, pr.rands[i].m = 0, 0
	}
}

// countSpan counts the next n instructions block by block: the accesses
// per stream into cnt and the loop-branch executions per slot into br.
// With marks it also advances the Rand streams' bursts over each block and
// marks each stream's last advance (markRand), the Skip's Rand draws
// starting at draws, and returns the draws after the span; without, it
// touches no stream and returns draws unchanged.
func (pr *Program) countSpan(n uint64, cnt []uint64, br *[nBranchSlots]uint64, draws uint64, marks bool) uint64 {
	var blk block
	randBr := pr.randBrBits
	for n > 0 {
		rng, at := pr.rng.State(), pr.instrIdx
		m, nm, nb := pr.drawBlock(n, &blk)
		n -= m
		pr.countMem(blk.memRB[:nm], cnt)
		for _, rb := range blk.brRB[:nb] {
			// A data-dependent branch leaves its slot's counter alone.
			var loop uint64
			if rb>>16 >= randBr {
				loop = 1
			}
			br[rb%nBranchSlots] += loop
		}
		if marks {
			draws = pr.markRand(cnt, draws, rng, at, m)
		}
	}
	return draws
}

// applySkip applies a Skip's counts (pr.skipCnt, br) once the Rand
// streams' bursts are advanced and their last advances marked: it jumps
// every Seq and Chase stream, the memory index, each Rand stream's lastOff,
// the Rand generator (randStart was its state at the Skip's start, draws
// the Skip's Rand draws) and the loop-branch counters.
func (pr *Program) applySkip(br *[nBranchSlots]uint64, randStart stats.RNG, draws uint64) {
	cnt := pr.skipCnt
	var memN uint64
	for i := range pr.streams {
		st := &pr.streams[i]
		memN += cnt[i]
		if st.kind == Rand {
			continue // burst already advanced by markRand
		}
		adv, left := burstSteps(st.burstLeft, st.burstLen, cnt[i])
		st.burstLeft = left
		if adv == 0 {
			continue
		}
		if st.kind == Seq {
			st.pos = seqJump(st.pos, st.stride, st.lines, adv)
		} else {
			st.pos = chaseJump(st.pos, adv) & (st.lines - 1)
		}
		st.lastOff = st.pos
	}
	pr.memIdx += memN
	rands := pr.rands
	for i := range rands {
		r := &rands[i]
		if r.m == 0 {
			continue
		}
		k := r.before + r.adv
		if r.shared {
			k = pr.lastDraw(i)
		}
		g := randStart
		g.Jump(k - 1)
		st := &pr.streams[r.si]
		st.lastOff, _ = bits.Mul64(g.Uint64(), st.lines)
	}
	pr.randRng = randStart
	pr.randRng.Jump(draws)
	for i := range pr.branchSlots {
		c := &pr.branchSlots[i].ctr
		*c = uint32((uint64(*c) + br[i]) % uint64(pr.loopDuty))
	}
}

// countMem adds one block's memory instructions to their streams' counts.
// Stream si takes the selectors in [cumW[si-1], cumW[si]) (pick's scan
// finds the first bound above the selector), so it counts, per bound, the
// selectors below it: a compare-and-add loop that keeps its count in a
// register, where a per-access increment of the picked stream's counter
// stalls on the store of the previous one.
func (pr *Program) countMem(memRB []uint32, cnt []uint64) {
	last := len(pr.cumW) - 1
	var below uint64 // selectors below the previous bound
	for si, bound := range pr.cumW[:last] {
		var c uint64
		for _, rb := range memRB {
			// rb&0xffff < bound without a branch: both fit 17 bits, so
			// the difference's top bit is the comparison.
			c += uint64((rb&0xffff - bound) >> 31)
		}
		cnt[si] += c - below
		below = c
	}
	cnt[last] += uint64(len(memRB)) - below
}

// markRand advances every Rand stream's burst over the block just counted
// into cnt (rng and at are the main generator and instruction index at its
// start, m its length), records the block as the last advance of each
// stream that advanced in it, and returns the Skip's Rand draws after it.
func (pr *Program) markRand(cnt []uint64, draws, rng, at, m uint64) uint64 {
	rands := pr.rands
	advancers := 0
	for i := range rands {
		r := &rands[i]
		c := cnt[r.si] - r.seen
		r.seen += c
		st := &pr.streams[r.si]
		r.blkAdv, r.blkEnd = burstSteps(st.burstLeft, st.burstLen, c)
		if r.blkAdv > 0 {
			advancers++
		}
	}
	for i := range rands {
		r := &rands[i]
		if r.blkAdv == 0 {
			continue
		}
		r.rng, r.at, r.m, r.before, r.adv = rng, at, m, draws, r.blkAdv
		r.shared = advancers > 1
		if r.shared {
			for j := range rands {
				r.bursts[j] = pr.streams[rands[j].si].burstLeft
			}
		}
	}
	for i := range rands {
		r := &rands[i]
		pr.streams[r.si].burstLeft = r.blkEnd
		draws += r.blkAdv
	}
	return draws
}

// lastDraw re-walks the block of Rand stream rands[k]'s last advance,
// which another Rand stream's advances share, and returns that advance's
// index (1-based) among the Skip's Rand draws. It leaves the program as
// it found it.
func (pr *Program) lastDraw(k int) uint64 {
	r := &pr.rands[k]
	rng, at := pr.rng, pr.instrIdx
	pr.rng.SetState(r.rng)
	pr.instrIdx = r.at
	pr.rebuildWeights()
	var blk block
	_, nm, _ := pr.drawBlock(r.m, &blk)
	bursts := r.bursts // consumed: the mark is rebuilt by the next Skip
	d, last := r.before, uint64(0)
	for _, rb := range blk.memRB[:nm] {
		si := pr.pick(rb)
		if pr.streams[si].kind != Rand {
			continue
		}
		j := 0
		for pr.rands[j].si != si {
			j++
		}
		if bursts[j] > 0 {
			bursts[j]--
			continue
		}
		d++
		bursts[j] = pr.streams[si].burstLen - 1
		if j == k {
			last = d
		}
	}
	pr.rng, pr.instrIdx = rng, at
	pr.rebuildWeights()
	return last
}

// burstSteps returns how many times a stream with left accesses left in
// its current burst of burstLen advances to a new line over its next c
// accesses, and the burst count it ends with: the first advance comes
// after the left revisits, then one every burstLen accesses.
func burstSteps(left, burstLen uint32, c uint64) (adv uint64, end uint32) {
	b := uint64(left)
	if c <= b {
		return 0, uint32(b - c)
	}
	c -= b
	l := uint64(burstLen)
	adv = (c + l - 1) / l
	return adv, uint32(adv*l - c)
}

// seqJump returns a Seq stream's position after adv advances of genMem's
// step: add stride, then subtract lines once if the sum reaches lines,
// all in uint64 arithmetic.
//
// With stride < lines and pos < lines (Seek refuses anything else) the
// step is an add modulo lines. With stride >= lines the position leaves
// [0, lines): the step adds d = stride-lines modulo 2^64, except from the
// window [2^64-stride, 2^64-stride+lines), where the add of stride wraps
// below lines and no subtraction follows. The loop jumps from window to
// window; each pass covers about 2^64/d advances, so it runs once or twice
// for any stride a profile can hold.
func seqJump(pos, stride, lines, adv uint64) uint64 {
	if stride < lines {
		hi, lo := bits.Mul64(adv%lines, stride)
		pos += bits.Rem64(hi, lo, lines)
		if pos >= lines {
			pos -= lines
		}
		return pos
	}
	d := stride - lines
	w := -stride // the window's start
	for adv > 0 {
		if pos-w < lines {
			pos += stride // the wrapping step
			adv--
			continue
		}
		if d == 0 {
			return pos // outside the window the step is the identity
		}
		// Steps until the window: the first k with pos+k*d reaching w,
		// going round 2^64 if w lies behind.
		g := w - pos
		k := g / d
		if g%d != 0 {
			k++
		}
		if k >= adv {
			return pos + adv*d
		}
		pos += k * d
		adv -= k
	}
	return pos
}

// chaseJump returns the full-width LCG state adv steps after x, composing
// the step with itself by squaring (O(log adv)). Masking to a Chase
// stream's power-of-two range commutes with the step, so the masked result
// is the stream's position after adv advances.
func chaseJump(x, adv uint64) uint64 {
	accMul, accInc := uint64(1), uint64(0)
	mul, inc := uint64(chaseMul), uint64(chaseInc)
	for ; adv > 0; adv >>= 1 {
		if adv&1 == 1 {
			accMul *= mul
			accInc = accInc*mul + inc
		}
		inc *= mul + 1
		mul *= mul
	}
	return accMul*x + accInc
}
