package workload

import (
	"encoding/json"
	"slices"
	"testing"
)

// TestSeekMatchesStraightReplay is the position API's bit-exactness
// oracle: for every profile in the suite, capturing a Position mid-stream
// and seeking a *fresh* program to it must continue the instruction
// stream bit-identically to the program that never stopped. The offsets
// straddle phase-gating edges (calculix's paired bursts, povray's duty
// cycle) so the rebuilt selection tables are exercised, not just the raw
// counters.
func TestSeekMatchesStraightReplay(t *testing.T) {
	const scale = 64
	offsets := []uint64{0, 1, 977, 40_000, 123_457}
	for _, prof := range Benchmarks() {
		straight := prof.NewProgram(scale)
		var captured []Position
		cursor := uint64(0)
		for _, off := range offsets {
			straight.Skip(off - cursor)
			cursor = off
			captured = append(captured, straight.Position())
		}
		for i, off := range offsets {
			forked := prof.NewProgram(scale)
			if err := forked.Seek(captured[i]); err != nil {
				t.Fatalf("%s@%d: seek: %v", prof.Name, off, err)
			}
			ref := prof.NewProgram(scale)
			ref.Skip(off)
			var a, b Instr
			for n := 0; n < 4096; n++ {
				ref.Next(&a)
				forked.Next(&b)
				if a != b {
					t.Fatalf("%s: instr %d after seek to %d diverged:\n got  %+v\n want %+v",
						prof.Name, n, off, b, a)
				}
			}
			if ref.InstrIndex() != forked.InstrIndex() || ref.MemIndex() != forked.MemIndex() {
				t.Fatalf("%s@%d: indices diverged: (%d,%d) vs (%d,%d)", prof.Name, off,
					forked.InstrIndex(), forked.MemIndex(), ref.InstrIndex(), ref.MemIndex())
			}
		}
	}
}

// TestPositionJSONRoundTrip: a Position survives JSON encode→decode with
// full equality — the property the checkpoint layer's encoding relies on.
func TestPositionJSONRoundTrip(t *testing.T) {
	pr := Mcf().NewProgram(64)
	pr.Skip(50_000)
	pos := pr.Position()
	b, err := json.Marshal(pos)
	if err != nil {
		t.Fatal(err)
	}
	var back Position
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	fresh := Mcf().NewProgram(64)
	if err := fresh.Seek(back); err != nil {
		t.Fatal(err)
	}
	var a, bb Instr
	for n := 0; n < 1000; n++ {
		pr.Next(&a)
		fresh.Next(&bb)
		if a != bb {
			t.Fatalf("instr %d diverged after JSON round-trip", n)
		}
	}
}

// TestSeekRejectsMismatchedShape: positions from a different profile shape
// fail loudly instead of silently corrupting the stream.
func TestSeekRejectsMismatchedShape(t *testing.T) {
	pos := Mcf().NewProgram(64).Position()
	pos.Streams = pos.Streams[:1]
	if err := Lbm().NewProgram(64).Seek(pos); err == nil {
		t.Fatal("seek accepted a position with the wrong stream count")
	}
	pos2 := Mcf().NewProgram(64).Position()
	pos2.BranchCtrs = nil
	if err := Mcf().NewProgram(64).Seek(pos2); err == nil {
		t.Fatal("seek accepted a position with the wrong branch-counter count")
	}
}

// TestSeekRejectsUnreachablePosition: a position whose code walk, burst,
// loop-branch counter or stream position lies outside what any run
// reaches is refused, and the same field at the last reachable value is
// accepted.
func TestSeekRejectsUnreachablePosition(t *testing.T) {
	// bwaves: stream 0 Rand, stream 1 Seq (bursts of 6 and 4, loop duty
	// 64); mcf: stream 1 Chase.
	type program struct {
		prof *Profile
		pr   *Program
		base Position
	}
	at := func(prof *Profile) program {
		pr := prof.NewProgram(256)
		pr.Skip(10_000)
		return program{prof, pr, pr.Position()}
	}
	bw, mcf := at(Bwaves()), at(Mcf())
	period := bw.pr.codeLines << 3
	lines := func(p program, i int) uint64 { return p.pr.streams[i].lines }
	cases := []struct {
		name   string
		on     program
		mutate func(p *Position, edge uint64)
	}{
		{"code position", bw, func(p *Position, edge uint64) { p.CodePos = period - 1 + edge }},
		{"burst count", bw, func(p *Position, edge uint64) {
			p.Streams[1].BurstLeft = bw.pr.streams[1].burstLen - 1 + uint32(edge)
		}},
		{"loop-branch counter", bw, func(p *Position, edge uint64) { p.BranchCtrs[3] = bw.pr.loopDuty - 1 + uint32(edge) }},
		{"seq position", bw, func(p *Position, edge uint64) {
			p.Streams[1].Pos = lines(bw, 1) - 1 + edge
			p.Streams[1].LastOff = p.Streams[1].Pos
		}},
		{"seq last line", bw, func(p *Position, edge uint64) { p.Streams[1].LastOff = p.Streams[1].Pos + edge }},
		{"chase position", mcf, func(p *Position, edge uint64) {
			p.Streams[1].Pos = lines(mcf, 1) - 1 + edge
			p.Streams[1].LastOff = p.Streams[1].Pos
		}},
		{"chase last line", mcf, func(p *Position, edge uint64) { p.Streams[1].LastOff = p.Streams[1].Pos ^ edge }},
		{"rand position", bw, func(p *Position, edge uint64) { p.Streams[0].Pos = edge }},
		{"rand last line", bw, func(p *Position, edge uint64) { p.Streams[0].LastOff = lines(bw, 0) - 1 + edge }},
	}
	for _, c := range cases {
		for edge := uint64(0); edge <= 1; edge++ {
			p := c.on.base
			p.Streams = slices.Clone(p.Streams)
			p.BranchCtrs = slices.Clone(p.BranchCtrs)
			c.mutate(&p, edge)
			err := c.on.prof.NewProgram(256).Seek(p)
			if edge == 0 && err != nil {
				t.Errorf("%s: seek refused the last reachable value: %v", c.name, err)
			}
			if edge == 1 && err == nil {
				t.Errorf("%s: seek accepted a value no run reaches", c.name)
			}
		}
	}
}
