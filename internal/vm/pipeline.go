package vm

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/workload"
)

// Walks split across two goroutines (DESIGN.md §9). Three walk kinds run a
// helper goroutine beside the caller, all through the same ring and under
// the same panic and drain contract:
//
//   - a long RunFuncWarm walk is pipelined (runPipelined): the helper
//     decodes the program (FillBatch) and trains the branch predictor,
//     one hand-off of handoffInstrs instructions at a time, while the
//     caller replays the fetch runs and warms the D-side from each
//     hand-off in program order;
//   - a long RunVDP walk is split (runVDPSplit): the caller profiles the
//     even segments of vdpSegInstrs instructions itself, and the helper,
//     on a program of its own, Skips ahead to each odd segment it can
//     still claim and decodes it into a hand-off, with the position it
//     ends at;
//   - a long Skip is counted in pieces (Skip): the caller and the helper
//     take pieces from the front, and the ring is only the helper's
//     ticket and exit signal.
//
// The rings come from one package-level pool shared by every Engine, so a
// walk allocates nothing per hand-off, and the buffers live once per walk
// running at a time rather than once per engine.
const (
	// handoffInstrs is one warming hand-off: 32 chunks. With hand-offs
	// of 1 024 instructions the hand-off cost ate the whole gain; 8 192
	// and 16 384 measured best, and the smaller was taken.
	handoffInstrs = 32 * workload.Chunk
	// pipeSlots is the ring: one hand-off being decoded, one being
	// warmed, one ready between them. Two slots lost a quarter of the
	// gain; more than three measured within the noise of three.
	pipeSlots = 3
	// pipeMinInstrs is the shortest pipelined walk. A walk of one
	// hand-off runs slower pipelined, one of two already faster; four
	// keep the Scout's 30 000- and 10 000-instruction windows serial.
	pipeMinInstrs = 4 * handoffInstrs
	// vdpSegInstrs is one segment of a split VDP walk: two warming
	// hand-offs. The helper's first odd segment is lost to the caller
	// unless the helper starts and Skips the first even one before the
	// caller has profiled it, and waking the second CPU took 0.1-0.7 ms
	// on a 2-vCPU container: 8 192-instruction segments lost most walks
	// that way, 16 384 and 32 768 gained alike, and the smaller keeps a
	// slot's access buffer at 320 KiB (DESIGN.md §9).
	vdpSegInstrs = 2 * handoffInstrs
	// vdpSplitMin is the shortest split VDP walk: eight segments, four
	// for each side, which splits every CoolSim schedule segment and the
	// Explorer-2..4 windows of the sampling benchmark's configuration.
	vdpSplitMin = 8 * vdpSegInstrs
	// skipSplitMin is the shortest Skip counted on two CPUs: about 2 ms
	// of counting, several times the helper's wake-up, so the helper
	// mostly finds pieces left. It splits the tracker's first and longest
	// Skip per region at the sampling benchmark's configuration.
	skipSplitMin = 1 << 19
)

// handoff is one ring buffer: a span's data accesses, its branch outcomes
// when a predictor is trained, and, for a split VDP walk, the segment it
// holds and the position the program reaches at the segment's end.
type handoff struct {
	acc mem.Batch
	brs []workload.Branch
	seg int64
	end workload.Position
}

// ring is one walk's hand-off ring. Between walks, free holds every slot
// index and full is empty. During a walk, a slot index is owned by
// whoever last received it: the helper fills a slot it took from free and
// sends it on full; the caller consumes it and returns it to free. The
// helper's last act is a -1 on full, so receiving it means the helper has
// exited and every slot is back in free or full.
type ring struct {
	slots [pipeSlots]handoff
	free  chan int
	full  chan int
	stop  atomic.Bool // the caller is unwinding: the helper exits at its next slot
	fault any         // the helper's panic value, published by its -1

	// Caller side: the slot it holds (-1 for none), and whether it has
	// received the helper's -1.
	held   int
	exited bool

	// A split VDP walk's hand-over: the program position the helper seeks
	// to first, and the next odd segment not yet claimed, or -1 once the
	// helper is to quit (runVDPSplit).
	start workload.Position
	claim atomic.Int64
}

// rings is the package-level pool of rings. A helper needs a CPU of its
// own, so at most one ring per two CPUs (and at least one) exists: a walk
// that finds every ring busy runs serial, which on a saturated pool is
// what a helper would mostly have done, without the ring's memory. Idle
// rings are kept; a sync.Pool would drop them at garbage collections,
// and under the race detector at random, and rebuild them.
var rings struct {
	sync.Mutex
	idle  []*ring
	built int
}

// getRing takes a ring from the pool, building one while fewer than
// max(1, GOMAXPROCS/2) exist, and arms it for a walk. It returns nil when
// every ring is busy.
func getRing() *ring {
	rings.Lock()
	var r *ring
	if n := len(rings.idle); n > 0 {
		r = rings.idle[n-1]
		rings.idle = rings.idle[:n-1]
	} else if rings.built < max(1, runtime.GOMAXPROCS(0)/2) {
		rings.built++
		r = newRing()
	}
	rings.Unlock()
	if r == nil {
		return nil
	}
	r.stop.Store(false)
	r.held, r.exited = -1, false
	return r
}

// newRing builds a ring whose slots start empty: each grows to what the
// walks that fill it need and keeps that capacity, so a ring whose helper
// seldom wins a segment, as on a saturated pool, stays small.
func newRing() *ring {
	// free holds every slot between walks; full can hold every slot and
	// the helper's -1, so no send on either ever blocks.
	r := &ring{free: make(chan int, pipeSlots), full: make(chan int, pipeSlots+1)}
	for i := range r.slots {
		r.free <- i
	}
	return r
}

// release ends the caller's side of a walk, normally or while a panic
// unwinds: it stops the helper, returns the slot the caller holds, waits
// for the helper's -1 and puts the ring, whole again, back in the pool.
func (r *ring) release() {
	r.stop.Store(true)
	r.claim.Store(-1)
	if r.held >= 0 {
		r.free <- r.held
		r.held = -1
	}
	for !r.exited {
		if i := <-r.full; i < 0 {
			r.exited = true
		} else {
			r.free <- i
		}
	}
	rings.Lock()
	rings.idle = append(rings.idle, r)
	rings.Unlock()
}

// recv takes the next filled slot for the caller. If the helper panicked
// instead, the helper has exited, and recv re-panics with its value.
func (r *ring) recv() *handoff { return r.take(<-r.full) }

// poll is recv that returns nil when no slot is filled yet.
func (r *ring) poll() *handoff {
	select {
	case i := <-r.full:
		return r.take(i)
	default:
		return nil
	}
}

// take makes filled slot i the caller's, or re-panics with the helper's
// panic value when i is its -1.
func (r *ring) take(i int) *handoff {
	if i < 0 {
		r.exited = true
		fault := r.fault
		r.fault = nil
		panic(fault)
	}
	r.held = i
	return &r.slots[i]
}

// done returns the caller's slot to the helper.
func (r *ring) done() {
	r.free <- r.held
	r.held = -1
}

// exit is the helper's deferred last act: it publishes a panic, returns
// the slot the helper holds and sends the -1.
func (r *ring) exit(held *int) {
	if v := recover(); v != nil {
		r.fault = v
	}
	if *held >= 0 {
		r.free <- *held
	}
	r.full <- -1
}

// join waits for a helper that hands over no slot to exit, and re-panics
// with its panic value if it panicked.
func (r *ring) join() {
	for !r.exited {
		if <-r.full < 0 {
			r.exited = true
		}
	}
	if fault := r.fault; fault != nil {
		r.fault = nil
		panic(fault)
	}
}

// Skip advances prog by n instructions exactly as prog.Skip(n) does. A
// Skip of skipSplitMin or more, when GOMAXPROCS > 1 and a ring is free, is
// counted on two CPUs (workload.SkipSplit): a helper goroutine and the
// caller take pieces from the front, so the caller never waits for a
// helper that has not started, and the caller applies the counts once
// both are done. On a busy pool it runs serial, as a helper there would
// mostly have found no CPU.
func Skip(prog *workload.Program, n uint64) {
	if n < skipSplitMin || runtime.GOMAXPROCS(0) == 1 {
		prog.Skip(n)
		return
	}
	r := getRing()
	if r == nil {
		prog.Skip(n)
		return
	}
	defer r.release()
	s := prog.SplitSkip(n)
	go r.countSkip(s)
	s.Count(false)
	r.join()
	s.Finish()
}

// countSkip is the split Skip's helper.
func (r *ring) countSkip(s *workload.SkipSplit) {
	held := -1
	defer r.exit(&held)
	s.Count(true)
}

// runPipelined warms n instructions through a ring: the program moves on
// the helper goroutine (decode), the hierarchy and OnData on the caller's
// (warm), so a panic in either re-panics here with its value once the
// helper has exited.
func (e *Engine) runPipelined(n uint64, w *Warming, f *fetchCursor) {
	r := getRing()
	if r == nil {
		e.runChunked(n, w, f)
		return
	}
	defer r.release()
	go r.decode(e.Prog, n, w.BP)
	for left := n; left > 0; left -= min(left, handoffInstrs) {
		f.warm(w, r.recv().acc)
		r.done()
	}
}

// decode is the warming helper: it decodes n instructions of prog hand-off
// by hand-off into the slots it takes from free, trains bp (when non-nil)
// on each hand-off's branches in program order, and sends each slot on
// full.
func (r *ring) decode(prog *workload.Program, n uint64, bp *cpu.BranchPred) {
	held := -1
	defer r.exit(&held)
	var brs *[]workload.Branch
	for left := n; left > 0; {
		held = <-r.free
		if r.stop.Load() {
			return
		}
		s := &r.slots[held]
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
		r.full <- held
		held = -1
	}
}

// runVDPSplit profiles n instructions in segments of vdpSegInstrs, the
// last one partial. The caller profiles the even segments. Whichever side
// first moves the claim counter from odd segment j to j+2 owns j: the
// helper to decode it into a hand-off, which the caller profiles before
// seeking its own program to the hand-off's end; the caller to profile it
// itself, which it does when the helper has not claimed j yet, or to skip
// it while no watchpoint is armed. Idle at a segment the helper owns but
// has not handed over, the caller skips it too and drops the hand-off
// when it comes. A helper that loses a segment Skips ahead and tries the
// next one. Saturated-host rule: once the helper has
// delivered a segment, the caller's decoding a segment the helper did not
// claim makes the helper quit, so on a full pool it wastes about one
// segment's Skip. Every callback runs on the caller's goroutine, and a
// panic on either side re-panics here once the helper has exited.
func (e *Engine) runVDPSplit(n uint64, v *vdpScan) {
	r := getRing()
	if r == nil {
		e.runVDPChunked(n, v)
		return
	}
	defer r.release()
	h := e.helperProgram()
	e.Prog.PositionTo(&r.start)
	r.claim.Store(1)
	go r.skipDecode(h, n)
	delivered := false
	for j := int64(0); uint64(j)*vdpSegInstrs < n; j++ {
		m := min(vdpSegInstrs, n-uint64(j)*vdpSegInstrs)
		if j%2 == 1 {
			idle := v.idle()
			if r.helped(j, idle || !delivered) {
				// Idle, the caller skips the segment sooner than the
				// helper decodes it, so it waits only when armed.
				if s := r.handOff(j, !idle); s != nil {
					e.scanVDP(v, s.acc)
					if err := e.Prog.Seek(s.end); err != nil {
						panic(err) // the helper runs the same profile and scale: a bug
					}
					r.done()
					delivered = true
					e.helped++
					continue
				}
			}
		}
		e.runVDPChunked(m, v)
	}
}

// handOff returns the helper's hand-off of odd segment j, first returning
// those of segments the caller profiled itself. Without wait it returns
// nil rather than wait for j's.
func (r *ring) handOff(j int64, wait bool) *handoff {
	for {
		var s *handoff
		if wait {
			s = r.recv()
		} else if s = r.poll(); s == nil {
			return nil
		}
		if s.seg == j {
			return s
		}
		r.done() // a segment the caller profiled itself
	}
}

// helped reports whether the helper decodes odd segment j. If the helper
// has not claimed j yet, the caller takes it, and unless keep is set the
// helper quits.
func (r *ring) helped(j int64, keep bool) bool {
	take := int64(-1)
	if keep {
		take = j + 2
	}
	for {
		c := r.claim.Load()
		if c < 0 {
			return false // the helper has quit
		}
		if c > j {
			return true
		}
		if r.claim.CompareAndSwap(j, take) {
			return false
		}
	}
}

// holdHelper, when non-nil, runs first on a split VDP walk's helper
// goroutine: a test seam that holds the helper back.
var holdHelper func(r *ring)

// skipDecode is the split VDP walk's helper: from the walk's start it
// Skips to the next unclaimed odd segment of n instructions, claims it,
// and decodes it with its end position into a slot it sends on full. It
// exits when the walk has no segment left or the caller makes it quit.
func (r *ring) skipDecode(prog *workload.Program, n uint64) {
	held := -1
	defer r.exit(&held)
	if holdHelper != nil {
		holdHelper(r)
	}
	if err := prog.Seek(r.start); err != nil {
		panic(err)
	}
	at := int64(0) // the segment prog is at the start of
	for {
		j := r.claim.Load()
		if j < 0 || uint64(j)*vdpSegInstrs >= n {
			return
		}
		prog.Skip(uint64(j-at) * vdpSegInstrs)
		at = j
		if !r.claim.CompareAndSwap(j, j+2) {
			continue
		}
		held = <-r.free
		if r.stop.Load() {
			return
		}
		s := &r.slots[held]
		s.acc.Reset()
		m := min(vdpSegInstrs, n-uint64(j)*vdpSegInstrs)
		prog.FillBatch(m, &s.acc, nil)
		s.seg = j
		prog.PositionTo(&s.end)
		at = j + 1
		r.full <- held
		held = -1
	}
}
