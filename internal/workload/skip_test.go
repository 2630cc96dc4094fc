package workload

import (
	"reflect"
	"sync"
	"testing"
)

// fuzzProfile decodes an inline profile from shape, one byte per choice
// (zero once shape runs out): 1-5 streams of which up to 3 Rand, bursts of
// 1-8, Seq strides up to twice the line count, overlays and phase gating.
// It also returns the scale the profile runs at.
func fuzzProfile(shape []byte) (*Profile, uint64) {
	next := func() uint64 {
		if len(shape) == 0 {
			return 0
		}
		b := shape[0]
		shape = shape[1:]
		return uint64(b)
	}
	scale := 1 + next()%32
	p := &Profile{
		Name:             "fuzz",
		MemRatio:         0.1 + float64(next())/512,
		BranchRatio:      0.02 + float64(next())/1024,
		FPFrac:           float64(next()) / 256,
		LoopDuty:         int(next() % 34),
		RandomBranchFrac: float64(next()) / 512,
		ILP:              int(next() % 9),
		CodeKiB:          int(1 + next()%64),
		Seed:             next()<<8 | next(),
	}
	streams, rands := 1+next()%5, 0
	for i := uint64(0); i < streams; i++ {
		s := StreamSpec{
			Kind:       StreamKind(next() % 3),
			Weight:     0.05 + float64(next())/256,
			PaperBytes: (1 + next()) * 4096,
			WriteFrac:  float64(next()) / 256,
			PCs:        int(next() % 8),
			Burst:      int(1 + next()%8),
		}
		if s.Kind == Rand {
			if rands == 3 {
				s.Kind = Seq
			} else {
				rands++
			}
		}
		lines := max(int(s.PaperBytes/64/scale), minLines)
		s.StrideLines = next() * 2 * uint64(lines) / 255
		if o := next(); i > 0 && o%4 == 0 {
			s.OverlayOf = int(1 + o/4%i)
		}
		if g := next(); g%3 == 0 {
			s.PhasePeriod = (1 + g) * 1000 * scale
			s.PhaseDuty = 0.05 + float64(next())/300
			s.PhaseOffsets = []float64{float64(next()) / 256}
			if g%2 == 0 {
				s.PhaseOffsets = append(s.PhaseOffsets, float64(next())/256)
			}
		}
		p.Streams = append(p.Streams, s)
	}
	return p, scale
}

// FuzzSkipMatchesNext is the closed-form Skip's oracle over arbitrary
// profiles: after each Skip(n), the Position equals that of a twin
// program advanced by n calls of Next, and a fresh program accepts it
// (a reached position is a reachable one). A third program takes the
// piece path of a split Skip, in pieces as short as the input asks (a
// split of one piece when it asks for none), counted serially.
func FuzzSkipMatchesNext(f *testing.F) {
	f.Add([]byte{3, 100, 40, 9, 7, 200, 4, 20, 1, 2, 4, 1, 80, 30, 100, 7, 3, 255, 1, 0, 128, 60, 0, 0}, []byte{0, 1, 1, 0, 40, 0, 0, 0})
	f.Add([]byte{1, 200, 10, 0, 2, 0, 1, 1, 5, 5, 2, 1, 0, 10, 9, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 9, 9, 4, 3, 1, 2, 3, 4, 5}, []byte{2, 1, 0, 255, 1, 0})
	f.Fuzz(func(t *testing.T, shape, skips []byte) {
		prof, scale := fuzzProfile(shape)
		a, b, c := prof.NewProgram(scale), prof.NewProgram(scale), prof.NewProgram(scale)
		var ins Instr
		total := 0
		for i := 0; i+1 < len(skips) && total < 200_000; i += 2 {
			n := int(skips[i])<<8 | int(skips[i+1])
			total += n
			a.Skip(uint64(n))
			piece := uint64(n)
			if i+2 < len(skips) {
				piece = 1 + uint64(skips[i+2])*16
			}
			splitSkip(c, uint64(n), piece, false)
			for j := 0; j < n; j++ {
				b.Next(&ins)
			}
			want := b.Position()
			if got := a.Position(); !reflect.DeepEqual(got, want) {
				t.Fatalf("after Skip(%d) at %d: position\n%+v\nwant (%d Next calls)\n%+v", n, total-n, got, n, want)
			}
			if got := c.Position(); !reflect.DeepEqual(got, want) {
				t.Fatalf("after a split Skip(%d) in pieces of %d at %d: position\n%+v\nwant (%d Next calls)\n%+v",
					n, piece, total-n, got, n, want)
			}
		}
		if err := prof.NewProgram(scale).Seek(a.Position()); err != nil {
			t.Fatalf("seek refused a position a run reached: %v", err)
		}
	})
}

// splitSkip skips n instructions through the piece path in pieces of
// piece instructions, counting them on the caller alone or, with helper,
// on a second goroutine too.
func splitSkip(pr *Program, n, piece uint64, helper bool) {
	s := pr.splitSkip(n, piece)
	var wg sync.WaitGroup
	if helper {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Count(true)
		}()
	}
	s.Count(false)
	wg.Wait()
	s.Finish()
}

// TestSeqJumpMatchesSteps pins seqJump to genMem's Seq step, one advance
// at a time, for strides below the line count and at or above it (where
// the position leaves [0, lines)), starting near 2^64 so the uint64 wrap
// and the wrapping window are both crossed.
func TestSeqJumpMatchesSteps(t *testing.T) {
	const lines = 24
	for _, stride := range []uint64{1, 7, lines - 1, lines, lines + 1, 2 * lines, 5 * lines} {
		starts := []uint64{0, lines - 1}
		if stride >= lines {
			starts = append(starts, -stride-3*(stride-lines)-1, -stride+lines-1, ^uint64(1))
		}
		for _, start := range starts {
			pos := start
			for adv := uint64(1); adv <= 300; adv++ {
				pos += stride
				if pos >= lines {
					pos -= lines
				}
				if got := seqJump(start, stride, lines, adv); got != pos {
					t.Fatalf("stride %d from %d: seqJump(%d) = %d, %d steps give %d", stride, start, adv, got, adv, pos)
				}
			}
		}
	}
}

// TestChaseJumpMatchesSteps pins chaseJump to the Chase step applied one
// advance at a time.
func TestChaseJumpMatchesSteps(t *testing.T) {
	for _, start := range []uint64{0, 5, ^uint64(0)} {
		x := start
		for adv := uint64(1); adv <= 2000; adv++ {
			x = x*chaseMul + chaseInc
			if got := chaseJump(start, adv); got != x {
				t.Fatalf("from %d: chaseJump(%d) = %d, %d steps give %d", start, adv, got, adv, x)
			}
		}
	}
}
