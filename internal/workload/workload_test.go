package workload

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/mem"
)

const testScale = 64

// TestDeterministicReplay is the property time traveling depends on: two
// instances of the same profile produce bit-identical streams, and Reset
// rewinds an instance to the identical stream.
func TestDeterministicReplay(t *testing.T) {
	for _, p := range []*Profile{Bwaves(), Mcf(), Calculix()} {
		a := p.NewProgram(testScale)
		b := p.NewProgram(testScale)
		var ia, ib Instr
		for i := 0; i < 200000; i++ {
			a.Next(&ia)
			b.Next(&ib)
			if ia != ib {
				t.Fatalf("%s: instance divergence at instr %d: %+v vs %+v", p.Name, i, ia, ib)
			}
		}
		if a.InstrIndex() != b.InstrIndex() || a.MemIndex() != b.MemIndex() {
			t.Fatalf("%s: index divergence", p.Name)
		}
		// Reset replays identically.
		first := make([]Instr, 1000)
		a.Reset()
		for i := range first {
			a.Next(&first[i])
		}
		a.Reset()
		for i := range first {
			a.Next(&ia)
			if ia != first[i] {
				t.Fatalf("%s: Reset replay diverged at %d", p.Name, i)
			}
		}
	}
}

// TestSkipEquivalence: Skip(n) must leave the program in exactly the state
// of n Next calls (fast-forwarding must not perturb the timeline), and so
// must the piece path of a split Skip, here counted serially in pieces of
// 1 000 instructions and on two goroutines in pieces of 4 096.
func TestSkipEquivalence(t *testing.T) {
	// Odd offsets, repeated so each program skips several times from
	// mid-burst and mid-phase states.
	offsets := []uint64{0, 1, 7, 12345, 100_003}
	skips := []struct {
		name string
		skip func(pr *Program, n uint64)
	}{
		{"Skip", (*Program).Skip},
		{"pieces", func(pr *Program, n uint64) { splitSkip(pr, n, 1000, false) }},
		{"pieces2", func(pr *Program, n uint64) { splitSkip(pr, n, 4096, true) }},
	}
	check := func(t *testing.T, p *Profile, scale uint64, offsets []uint64) {
		t.Helper()
		for _, sk := range skips {
			a := p.NewProgram(scale)
			b := p.NewProgram(scale)
			var ia, ib Instr
			for _, off := range offsets {
				sk.skip(a, off)
				for i := uint64(0); i < off; i++ {
					b.Next(&ib)
				}
				if !reflect.DeepEqual(a.Position(), b.Position()) {
					t.Fatalf("%s: Position after %s(%d) differs from %d Next calls", p.Name, sk.name, off, off)
				}
				for i := 0; i < 1000; i++ {
					a.Next(&ia)
					b.Next(&ib)
					if ia != ib {
						t.Fatalf("%s: diverged at %d after %s(%d)", p.Name, i, sk.name, off)
					}
				}
			}
		}
	}
	for _, p := range Benchmarks() {
		check(t, p, testScale, offsets)
	}
	// Across phase edges: calculix's paired bursts at a scale where its
	// period is ~76k instructions, skipped in odd chunks over three periods.
	cal := Calculix()
	chunks := make([]uint64, 0, 64)
	for i := 0; i < 48; i++ {
		chunks = append(chunks, 3_001+uint64(i)*97)
	}
	check(t, cal, 1<<16, chunks)
}

// TestInstructionMix checks the realized kind ratios against the profile.
func TestInstructionMix(t *testing.T) {
	for _, p := range Benchmarks() {
		pr := p.NewProgram(testScale)
		var ins Instr
		const n = 300000
		counts := map[InstrKind]int{}
		for i := 0; i < n; i++ {
			pr.Next(&ins)
			counts[ins.Kind]++
		}
		memFrac := float64(counts[KindLoad]+counts[KindStore]) / n
		brFrac := float64(counts[KindBranch]) / n
		if math.Abs(memFrac-p.MemRatio) > 0.02 {
			t.Errorf("%s: mem frac %.3f, want %.3f", p.Name, memFrac, p.MemRatio)
		}
		if math.Abs(brFrac-p.BranchRatio) > 0.02 {
			t.Errorf("%s: branch frac %.3f, want %.3f", p.Name, brFrac, p.BranchRatio)
		}
		if got := pr.MemIndex(); got != uint64(counts[KindLoad]+counts[KindStore]) {
			t.Errorf("%s: MemIndex %d != counted %d", p.Name, got, counts[KindLoad]+counts[KindStore])
		}
	}
}

// TestStreamArenasDisjoint: streams must not alias each other's lines, and
// all data must stay clear of the code arena.
func TestStreamArenasDisjoint(t *testing.T) {
	for _, p := range Benchmarks() {
		pr := p.NewProgram(testScale)
		type rng struct{ lo, hi uint64 }
		var arenas []rng
		for _, st := range pr.streams {
			if st.overlay {
				continue // overlays intentionally share a host arena
			}
			arenas = append(arenas, rng{st.baseLine, st.baseLine + st.lines*st.spread})
		}
		for i := range arenas {
			if arenas[i].hi > codeBaseLine {
				t.Errorf("%s: stream %d overlaps code arena", p.Name, i)
			}
			for j := i + 1; j < len(arenas); j++ {
				if arenas[i].lo < arenas[j].hi && arenas[j].lo < arenas[i].hi {
					t.Errorf("%s: streams %d and %d overlap", p.Name, i, j)
				}
			}
		}
	}
}

// TestAddressesInArena: every generated address must fall inside the arena
// of one of the profile's streams.
func TestAddressesInArena(t *testing.T) {
	p := Zeusmp()
	pr := p.NewProgram(testScale)
	var ins Instr
	for i := 0; i < 100000; i++ {
		pr.Next(&ins)
		if ins.Kind != KindLoad && ins.Kind != KindStore {
			continue
		}
		line := uint64(mem.LineOf(ins.Addr))
		ok := false
		for _, st := range pr.streams {
			if line >= st.baseLine && line < st.baseLine+st.lines*st.spread {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("address %#x (line %d) outside all arenas", ins.Addr, line)
		}
	}
}

// TestChaseFullPeriod: the chase LCG must visit every line of its
// (power-of-two) arena exactly once per cycle.
func TestChaseFullPeriod(t *testing.T) {
	p := &Profile{
		Name: "chase-test", MemRatio: 1.0, LoopDuty: 4, ILP: 4,
		Streams: []StreamSpec{{Kind: Chase, Weight: 1, PaperBytes: 64 * 256 * testScale}},
		Seed:    7,
	}
	pr := p.NewProgram(testScale)
	lines := pr.streams[0].lines
	if lines&(lines-1) != 0 {
		t.Fatalf("chase arena not a power of two: %d", lines)
	}
	seen := make(map[mem.Line]int, lines)
	var ins Instr
	for i := uint64(0); i < lines; i++ {
		pr.Next(&ins)
		seen[ins.Line()]++
	}
	if uint64(len(seen)) != lines {
		t.Fatalf("chase visited %d unique lines in one period, want %d", len(seen), lines)
	}
	for l, c := range seen {
		if c != 1 {
			t.Fatalf("line %d visited %d times in one period", l, c)
		}
	}
}

func (i *Instr) Line() mem.Line { return mem.LineOf(i.Addr) }

// TestPhaseGating: a phased stream must only produce accesses during its
// burst windows.
func TestPhaseGating(t *testing.T) {
	const period = 1_000_000 * testScale
	p := &Profile{
		Name: "phase-test", MemRatio: 0.5, LoopDuty: 4, ILP: 4,
		Streams: []StreamSpec{
			{Kind: Rand, Weight: 0.9, PaperBytes: mib},
			{Kind: Rand, Weight: 0.1, PaperBytes: 64 * mib,
				PhasePeriod: period, PhaseDuty: 0.1, PhaseOffsets: []float64{0.5}},
		},
		Seed: 9,
	}
	pr := p.NewProgram(testScale)
	phStream := pr.streams[1]
	scaledPeriod := period / testScale
	var ins Instr
	inBurst, outBurst := 0, 0
	for i := 0; i < 3*scaledPeriod; i++ {
		idx := pr.InstrIndex()
		pr.Next(&ins)
		if ins.Kind != KindLoad && ins.Kind != KindStore {
			continue
		}
		line := uint64(mem.LineOf(ins.Addr))
		fromPhased := line >= phStream.baseLine && line < phStream.baseLine+phStream.lines
		pos := idx % uint64(scaledPeriod)
		active := pos >= uint64(0.5*float64(scaledPeriod)) && pos < uint64(0.6*float64(scaledPeriod))
		if fromPhased {
			if active {
				inBurst++
			} else {
				outBurst++
			}
		}
	}
	if outBurst > 0 {
		t.Errorf("phased stream produced %d accesses outside its burst", outBurst)
	}
	if inBurst == 0 {
		t.Error("phased stream never produced accesses during its burst")
	}
}

// TestBenchmarksWellFormed sanity-checks the whole suite.
func TestBenchmarksWellFormed(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 24 {
		t.Fatalf("suite has %d benchmarks, want 24 (paper's SPEC CPU2006 subset)", len(bs))
	}
	seen := map[string]bool{}
	for _, p := range bs {
		if seen[p.Name] {
			t.Errorf("duplicate benchmark %q", p.Name)
		}
		seen[p.Name] = true
		var w float64
		for _, s := range p.Streams {
			w += s.Weight
		}
		if math.Abs(w-1) > 1e-9 {
			t.Errorf("%s: stream weights sum to %f, want 1", p.Name, w)
		}
		if p.MemRatio <= 0 || p.MemRatio+p.BranchRatio >= 1 {
			t.Errorf("%s: implausible instruction mix", p.Name)
		}
		if ByName(p.Name) == nil {
			t.Errorf("ByName(%q) = nil", p.Name)
		}
	}
	if ByName("nonexistent") != nil {
		t.Error("ByName should return nil for unknown benchmarks")
	}
}

// TestBranchPattern: loop branches must be not-taken once per LoopDuty.
func TestBranchPattern(t *testing.T) {
	p := &Profile{
		Name: "br-test", MemRatio: 0.1, BranchRatio: 0.5, LoopDuty: 8,
		RandomBranchFrac: 0, ILP: 4,
		Streams: []StreamSpec{{Kind: Rand, Weight: 1, PaperBytes: mib}},
		Seed:    11,
	}
	pr := p.NewProgram(testScale)
	var ins Instr
	taken, total := 0, 0
	for i := 0; i < 100000; i++ {
		pr.Next(&ins)
		if ins.Kind == KindBranch {
			total++
			if ins.Taken {
				taken++
			}
		}
	}
	rate := float64(taken) / float64(total)
	want := 7.0 / 8.0
	if math.Abs(rate-want) > 0.02 {
		t.Errorf("taken rate %.3f, want ~%.3f", rate, want)
	}
}

func BenchmarkProgramNext(b *testing.B) {
	pr := Zeusmp().NewProgram(testScale)
	var ins Instr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.Next(&ins)
	}
}

// BenchmarkProgramSkip reports the fast-forward cost per skipped
// instruction (ns/op is ns per instruction): mcf (one Rand stream, two
// Chase), omnetpp, bwaves (Rand and Seq) and calculix, whose two Rand
// streams make Skip re-walk the block of each one's last advance. The
// split cases skip spans of 3.5 M instructions, the tracker's longest per
// region at Scale 256, through the piece path on two goroutines, the
// caller and a helper, as vm.Skip counts a long Skip when a CPU is free.
func BenchmarkProgramSkip(b *testing.B) {
	for _, prof := range []*Profile{Mcf(), Omnetpp(), Bwaves(), Calculix()} {
		b.Run(prof.Name, func(b *testing.B) {
			pr := prof.NewProgram(256)
			b.ResetTimer()
			pr.Skip(uint64(b.N))
		})
	}
	const span = 3_500_000
	for _, prof := range []*Profile{Mcf(), Omnetpp(), Bwaves()} {
		b.Run(prof.Name+"/split", func(b *testing.B) {
			pr := prof.NewProgram(256)
			b.ResetTimer()
			for left := uint64(b.N); left > 0; {
				n := min(left, span)
				left -= n
				splitSkip(pr, n, skipPieceInstrs, true)
			}
		})
	}
}

// BenchmarkProgramFillBatch reports the batched generator's cost per
// instruction (ns/op is ns per instruction), filled in the 256-instruction
// chunks directed profiling uses.
func BenchmarkProgramFillBatch(b *testing.B) {
	pr := Mcf().NewProgram(256)
	batch := make(mem.Batch, 0, 256)
	b.ResetTimer()
	for left := uint64(b.N); left > 0; {
		n := min(left, 256)
		left -= n
		batch.Reset()
		pr.FillBatch(n, &batch, nil)
	}
}

// BenchmarkProgramFillInstrs reports the full-instruction decoder's cost
// per instruction (ns/op is ns per instruction), decoded into the
// Chunk-sized array the timing core uses.
func BenchmarkProgramFillInstrs(b *testing.B) {
	for _, prof := range []*Profile{Mcf(), Omnetpp(), Bwaves()} {
		b.Run(prof.Name, func(b *testing.B) {
			pr := prof.NewProgram(256)
			var buf [Chunk]Instr
			b.ResetTimer()
			for left := uint64(b.N); left > 0; {
				n := min(left, Chunk)
				left -= n
				pr.FillInstrs(buf[:n])
			}
		})
	}
}
