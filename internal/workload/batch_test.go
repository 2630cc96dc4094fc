package workload

import (
	"math/bits"
	"slices"
	"testing"

	"repro/internal/mem"
)

func mulHi(a, b uint64) uint64 {
	h, _ := bits.Mul64(a, b)
	return h
}

// batchProfiles spans the generator's feature space: plain streaming,
// phase gating (calculix), overlays/spread (povray), random + chase mixes.
func batchProfiles() []*Profile {
	return []*Profile{GemsFDTD(), Calculix(), Povray(), Mcf(), Perlbench()}
}

// TestFillBatchMatchesNext pins the batched generator to the
// access-at-a-time one over every benchmark: identical access records,
// identical branch outcomes on the chunks that ask for them (every other
// one; the rest discard them) and identical subsequent state, across
// chunk boundaries, two-phase block boundaries and phase edges. The last
// case runs calculix at a scale where its phase period is ~76k
// instructions, so the span crosses several phase edges.
func TestFillBatchMatchesNext(t *testing.T) {
	const span = 300_000
	type tc struct {
		name  string
		prof  *Profile
		scale uint64
	}
	var cases []tc
	for _, prof := range Benchmarks() {
		cases = append(cases, tc{prof.Name, prof, 64})
	}
	cases = append(cases, tc{"calculix-phase-edges", Calculix(), 1 << 16})
	for _, c := range cases {
		prof, scale := c.prof, c.scale
		t.Run(c.name, func(t *testing.T) {
			ref := prof.NewProgram(scale)
			bat := prof.NewProgram(scale)

			var want mem.Batch
			var refBr []Branch
			var refBrAt []uint64
			var ins Instr
			for i := 0; i < span; i++ {
				memIdx := ref.MemIndex()
				instrIdx := ref.InstrIndex()
				ref.Next(&ins)
				if ins.Kind == KindLoad || ins.Kind == KindStore {
					want.Add(mem.Access{PC: ins.PC, Addr: ins.Addr,
						Write: ins.Kind == KindStore, MemIdx: memIdx, InstrIdx: instrIdx})
				}
				if ins.Kind == KindBranch {
					refBr = append(refBr, Branch{PC: ins.PC, Taken: ins.Taken})
					refBrAt = append(refBrAt, instrIdx)
				}
			}

			var got mem.Batch
			var gotBr, wantBr []Branch
			odd, nextBr := false, 0
			// Chunks on either side of one and two blocks first, then
			// uneven sizes so boundaries land everywhere, including
			// mid-burst and on phase edges.
			fixed := []uint64{1, skipBlock - 1, skipBlock, skipBlock + 1, 2*skipBlock - 1, 2*skipBlock + 3}
			for done, chunk := uint64(0), uint64(1); done < span; chunk = chunk*7%8191 + 1 {
				n := chunk
				if len(fixed) > 0 {
					n, fixed = fixed[0], fixed[1:]
				}
				if done+n > span {
					n = span - done
				}
				if odd = !odd; odd {
					bat.FillBatch(n, &got, nil)
				} else {
					bat.FillBatch(n, &got, &gotBr)
				}
				for ; nextBr < len(refBrAt) && refBrAt[nextBr] < done+n; nextBr++ {
					if !odd {
						wantBr = append(wantBr, refBr[nextBr])
					}
				}
				done += n
			}

			if !slices.Equal(gotBr, wantBr) || len(wantBr) == 0 {
				t.Fatalf("batched path yielded %d branch outcomes, want %d equal ones", len(gotBr), len(wantBr))
			}
			if len(got) != len(want) {
				t.Fatalf("batched path yielded %d accesses, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("access %d differs: batched %+v, want %+v", i, got[i], want[i])
				}
			}
			if bat.InstrIndex() != ref.InstrIndex() || bat.MemIndex() != ref.MemIndex() {
				t.Fatalf("state diverged: batched (%d,%d), ref (%d,%d)",
					bat.InstrIndex(), bat.MemIndex(), ref.InstrIndex(), ref.MemIndex())
			}
			// The continuations must agree too.
			for i := 0; i < 10_000; i++ {
				var a, b Instr
				ref.Next(&a)
				bat.Next(&b)
				if a != b {
					t.Fatalf("continuation instruction %d differs: %+v vs %+v", i, b, a)
				}
			}
		})
	}
}

// TestFillInstrBatchMatchesNext pins the instruction decoder (FillInstrs)
// to the access-at-a-time generator over every benchmark: identical
// instruction records and identical subsequent state, across chunk
// boundaries, two-phase block boundaries and phase edges. The records are
// decoded over garbage, so a field the decoder leaves unwritten fails.
// The last case runs calculix at a scale where its phase period is ~76k
// instructions, so the span crosses several phase edges.
func TestFillInstrBatchMatchesNext(t *testing.T) {
	const span = 300_000
	type tc struct {
		name  string
		prof  *Profile
		scale uint64
	}
	var cases []tc
	for _, prof := range Benchmarks() {
		cases = append(cases, tc{prof.Name, prof, 64})
	}
	cases = append(cases, tc{"calculix-phase-edges", Calculix(), 1 << 16})
	for _, c := range cases {
		prof, scale := c.prof, c.scale
		t.Run(c.name, func(t *testing.T) {
			ref := prof.NewProgram(scale)
			bat := prof.NewProgram(scale)

			want := make([]Instr, span)
			for i := range want {
				ref.Next(&want[i])
			}

			got := make([]Instr, span)
			for i := range got {
				got[i] = Instr{PC: ^uint64(i), Addr: 0xdead, FetchLine: 0xbeef, Kind: numKinds,
					Taken: true, DepDist: 0xffff, Lat: 0xff}
			}
			// Chunks on either side of one and two blocks first, then
			// uneven sizes so boundaries land everywhere, including
			// mid-burst and on phase edges.
			fixed := []uint64{1, skipBlock - 1, skipBlock, skipBlock + 1, 2*skipBlock - 1}
			for done, chunk := uint64(0), uint64(1); done < span; chunk = chunk*7%8191 + 1 {
				n := chunk
				if len(fixed) > 0 {
					n, fixed = fixed[0], fixed[1:]
				}
				n = min(n, span-done)
				bat.FillInstrs(got[done : done+n])
				done += n
			}

			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("instruction %d differs: batched %+v, want %+v", i, got[i], want[i])
				}
			}
			if bat.InstrIndex() != ref.InstrIndex() || bat.MemIndex() != ref.MemIndex() {
				t.Fatalf("state diverged: batched (%d,%d), ref (%d,%d)",
					bat.InstrIndex(), bat.MemIndex(), ref.InstrIndex(), ref.MemIndex())
			}
			// The continuations must agree too.
			for i := 0; i < 10_000; i++ {
				var a, b Instr
				ref.Next(&a)
				bat.Next(&b)
				if a != b {
					t.Fatalf("continuation instruction %d differs: %+v vs %+v", i, b, a)
				}
			}
		})
	}
}

// TestFillInstrBatchSteadyStateAllocs: decoding into a fixed Chunk-sized
// array, the way the timing core does, allocates nothing.
func TestFillInstrBatchSteadyStateAllocs(t *testing.T) {
	prog := GemsFDTD().NewProgram(64)
	var buf [Chunk]Instr
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 16; i++ {
			prog.FillInstrs(buf[:])
		}
	})
	if allocs != 0 {
		t.Fatalf("FillInstrs allocated %.2f times per window", allocs)
	}
}

// TestDepModMatchesModulo pins the dependence-distance fastmod against the
// % operator over the full numerator range (12 bits of the instruction
// draw) for every ILP-derived span in the benchmark suite.
func TestDepModMatchesModulo(t *testing.T) {
	spans := map[uint32]struct{}{1: {}, 2: {}, 3: {}}
	for _, p := range Benchmarks() {
		pr := p.NewProgram(64)
		spans[pr.depSpan] = struct{}{}
	}
	for span := range spans {
		pr := &Program{depSpan: span, depMagic: ^uint64(0)/uint64(span) + 1}
		for x := uint32(0); x < 1<<12; x++ {
			if got, want := pr.depMod(x), uint16(x%span); got != want {
				t.Fatalf("depMod(%d) with span %d = %d, want %d", x, span, got, want)
			}
		}
	}
}

// TestFastmodMatchesModulo pins genMem's Lemire fastmod against the %
// operator over the full 16-bit numerator range for every PC count in use.
func TestFastmodMatchesModulo(t *testing.T) {
	counts := map[uint64]struct{}{1: {}, 2: {}, 3: {}, 5: {}, 7: {}, 64: {}, 65535: {}}
	for _, p := range batchProfiles() {
		for _, s := range p.Streams {
			if s.PCs > 0 {
				counts[uint64(s.PCs)] = struct{}{}
			}
		}
	}
	for n := range counts {
		magic := ^uint64(0)/n + 1
		for x := uint64(0); x < 1<<16; x++ {
			if got := mulHi(magic*x, n); got != x%n {
				t.Fatalf("fastmod(%d, %d) = %d, want %d", x, n, got, x%n)
			}
		}
	}
}

// TestFillBatchSteadyStateAllocs: a sized batch refilled by a phase-free
// program allocates nothing.
func TestFillBatchSteadyStateAllocs(t *testing.T) {
	prog := GemsFDTD().NewProgram(64)
	batch := make(mem.Batch, 0, 4096)
	prog.FillBatch(4096, &batch, nil) // size the batch
	allocs := testing.AllocsPerRun(20, func() {
		batch.Reset()
		prog.FillBatch(4096, &batch, nil)
	})
	if allocs != 0 {
		t.Fatalf("steady-state FillBatch allocated %.2f times per window", allocs)
	}
}

// TestFetchWalkMatchesNext pins the fetch walk to the fetch lines Next
// produces, from positions on every slot of a fetch line and across code
// walk wraps (scale 256 makes every walk a few hundred instructions).
func TestFetchWalkMatchesNext(t *testing.T) {
	for _, prof := range batchProfiles() {
		prog := prof.NewProgram(256)
		for start := 0; start < 16; start++ {
			prog.Skip(uint64(start)*7 + 1)
			walk := prog.FetchWalk()
			var line mem.Line
			var left uint64
			for i := 0; i < 5_000; i++ {
				if left == 0 {
					line, left = walk.Next()
				}
				left--
				var ins Instr
				prog.Next(&ins)
				if ins.FetchLine != line {
					t.Fatalf("%s start %d instruction %d: walk says line %#x, Next fetched %#x",
						prof.Name, start, i, line, ins.FetchLine)
				}
			}
		}
	}
}
