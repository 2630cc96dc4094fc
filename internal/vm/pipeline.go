package vm

import (
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/workload"
)

// Pipelined functional warming (DESIGN.md §9). A long RunFuncWarm walk
// splits into two stages that share no state: a helper goroutine decodes
// the program (FillBatch) and trains the branch predictor, one hand-off of
// handoffInstrs instructions at a time, while the caller replays the fetch
// runs and warms the D-side from each hand-off in program order. The
// hand-offs circulate through a ring of pipeSlots buffers the Engine owns,
// so a walk allocates nothing per hand-off and the ring is reused across
// calls.
const (
	// handoffInstrs is one hand-off: 32 chunks. With hand-offs of 1 024
	// instructions the hand-off cost ate the whole gain; 8 192 and 16 384
	// measured best, and the smaller keeps the ring at about 600 KiB.
	handoffInstrs = 32 * workload.Chunk
	// pipeSlots is the ring: one hand-off being decoded, one being
	// warmed, one ready between them. Two slots lost a quarter of the
	// gain; more than three measured within the noise of three.
	pipeSlots = 3
	// pipeMinInstrs is the shortest pipelined walk. A walk of one
	// hand-off runs slower pipelined, one of two already faster; four
	// keep the Scout's 30 000- and 10 000-instruction windows serial.
	pipeMinInstrs = 4 * handoffInstrs
)

// handoff is one ring buffer: a span's data accesses and, when a
// predictor is trained, its branch outcomes.
type handoff struct {
	acc mem.Batch
	brs []workload.Branch
}

// pipeline is the ring of one Engine. Between walks, free holds every
// slot index and full is empty. During a walk, a slot index is owned by
// whoever last received it: the helper fills a slot it took from free and
// sends it on full; the caller warms from it and returns it to free. The
// helper's last act is a -1 on full, so receiving it means the helper has
// exited and every slot is back in free or full.
type pipeline struct {
	slots [pipeSlots]handoff
	free  chan int
	full  chan int
	stop  atomic.Bool // the caller is unwinding: the helper exits at its next slot
	fault any         // the helper's panic value, published by its -1
}

func newPipeline() *pipeline {
	// free holds every slot between walks; full can hold every slot and
	// the helper's -1, so no send on either ever blocks.
	p := &pipeline{free: make(chan int, pipeSlots), full: make(chan int, pipeSlots+1)}
	for i := range p.slots {
		p.slots[i] = handoff{
			acc: make(mem.Batch, 0, handoffInstrs/2),
			brs: make([]workload.Branch, 0, handoffInstrs/4),
		}
		p.free <- i
	}
	return p
}

// runPipelined warms n instructions through the ring: the program moves
// on the helper goroutine (decode), the hierarchy and OnData on the
// caller's (warm), so a panic in either re-panics here with its value once
// the helper has exited.
func (e *Engine) runPipelined(n uint64, w *Warming, f *fetchCursor) {
	if e.pipe == nil {
		e.pipe = newPipeline()
	}
	p := e.pipe
	p.stop.Store(false)
	go p.decode(e.Prog, n, w.BP)
	held := -1
	defer func() {
		if held < 0 {
			return
		}
		// The warming (OnData) panicked while holding slot held: stop
		// the helper and wait for it, so the panic leaves the ring whole.
		p.stop.Store(true)
		p.free <- held
		p.drain()
	}()
	for left := n; left > 0; left -= min(left, handoffInstrs) {
		held = <-p.full
		if held < 0 { // the helper panicked and has exited
			fault := p.fault
			p.fault = nil
			panic(fault)
		}
		f.warm(w, p.slots[held].acc)
		p.free <- held
		held = -1
	}
	p.drain()
}

// drain moves every slot still on full back to free until the helper's
// -1 arrives.
func (p *pipeline) drain() {
	for {
		i := <-p.full
		if i < 0 {
			return
		}
		p.free <- i
	}
}

// decode is the helper: it decodes n instructions of prog hand-off by
// hand-off into the slots it takes from free, trains bp (when non-nil) on
// each hand-off's branches in program order, and sends each slot on full.
func (p *pipeline) decode(prog *workload.Program, n uint64, bp *cpu.BranchPred) {
	held := -1
	defer func() {
		if r := recover(); r != nil {
			p.fault = r
		}
		if held >= 0 {
			p.free <- held
		}
		p.full <- -1
	}()
	var brs *[]workload.Branch
	for left := n; left > 0; {
		held = <-p.free
		if p.stop.Load() {
			return
		}
		s := &p.slots[held]
		m := min(left, handoffInstrs)
		left -= m
		s.acc.Reset()
		s.brs = s.brs[:0]
		if bp != nil {
			brs = &s.brs
		}
		prog.FillBatch(m, &s.acc, brs)
		for _, b := range s.brs {
			bp.PredictAndUpdate(b.PC, b.Taken)
		}
		p.full <- held
		held = -1
	}
}
