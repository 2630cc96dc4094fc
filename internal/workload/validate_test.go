package workload

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/mem"
)

// TestSuiteProfilesValidate: every registered benchmark passes the check
// inline profiles must pass, at every scale from 1 to 1024 (the range the
// tests, figures, CLIs and perfbench run), without allocating.
func TestSuiteProfilesValidate(t *testing.T) {
	for _, p := range Benchmarks() {
		for scale := uint64(1); scale <= 1024; scale++ {
			if err := p.Validate(scale); err != nil {
				t.Errorf("%s at scale %d: %v", p.Name, scale, err)
				break
			}
		}
		if n := testing.AllocsPerRun(10, func() { _ = p.Validate(1) }); n != 0 {
			t.Errorf("%s: Validate allocates %v times on the accept path", p.Name, n)
		}
	}
}

// phaseStorm returns the profile with the densest phase edges the bound
// can see: 64 streams of 64 one-instruction bursts each, every burst
// edge at its own instruction.
func phaseStorm(period uint64) *Profile {
	p := Mcf()
	p.Streams = make([]StreamSpec, maxStreams)
	for s := range p.Streams {
		offs := make([]float64, maxPhaseOffsets)
		for j := range offs {
			offs[j] = float64(j*maxStreams+s) / (maxStreams * maxPhaseOffsets)
		}
		p.Streams[s] = StreamSpec{Kind: Seq, Weight: 1, PaperBytes: 1 << 20, StrideLines: 1,
			PhasePeriod: period, PhaseOffsets: offs}
	}
	return p
}

// TestPhaseBoundPinsEdgeCount pins the worst profile the phase bound
// accepts at scale 1: a period of 36,175,872 instructions passes and one
// fewer does not, and walking one period rebuilds the stream tables at
// exactly 8,192 edges (a start and an end for each of 64 × 64 bursts),
// within the maxPhaseWork budget of table steps per instruction.
func TestPhaseBoundPinsEdgeCount(t *testing.T) {
	const period = 36_175_872
	if err := phaseStorm(period).Validate(1); err != nil {
		t.Fatalf("worst accepted profile refused: %v", err)
	}
	if err := phaseStorm(period - 1).Validate(1); err == nil {
		t.Fatal("a denser profile than the worst accepted one passed")
	}
	// Each Skip crosses exactly one edge: it rebuilds on reaching
	// nextPhaseEdge and stops one instruction past it, which is at most
	// the next edge.
	pr := phaseStorm(period).NewProgram(1)
	edges := 0
	for pr.InstrIndex() <= period {
		pr.Skip(pr.nextPhaseEdge - pr.InstrIndex() + 1)
		edges++
	}
	if edges != 8192 {
		t.Errorf("one period crossed %d phase edges, want 8192", edges)
	}
	steps := 256 + maxStreams + maxStreams*maxPhaseOffsets
	if work := float64(edges*steps) / period; work > maxPhaseWork {
		t.Errorf("one period cost %.3f table steps per instruction, bound is %v", work, maxPhaseWork)
	}
}

// TestValidateRejects: each profile NewProgram cannot build or run safely
// is refused, naming the field at fault. The first three once reached the
// executor: a panic on the overlay and on the empty stream list, and n²
// words of Rand bookkeeping for n Rand streams.
func TestValidateRejects(t *testing.T) {
	base := func(edit func(p *Profile)) *Profile {
		p := Mcf()
		p.Streams = append([]StreamSpec(nil), p.Streams...)
		edit(p)
		return p
	}
	manyRand := make([]StreamSpec, maxStreams+1)
	for i := range manyRand {
		manyRand[i] = StreamSpec{Kind: Rand, Weight: 1, PaperBytes: 1 << 20}
	}
	cases := []struct {
		name  string
		prof  *Profile
		field string
	}{
		{"overlay of a later stream", base(func(p *Profile) { p.Streams[0].OverlayOf = 2 }), "Streams[0].OverlayOf"},
		{"no streams", base(func(p *Profile) { p.Streams = nil }), "Streams"},
		{"too many streams", base(func(p *Profile) { p.Streams = manyRand }), "Streams"},
		{"negative overlay", base(func(p *Profile) { p.Streams[1].OverlayOf = -1 }), "Streams[1].OverlayOf"},
		{"unknown kind", base(func(p *Profile) { p.Streams[1].Kind = Chase + 1 }), "Streams[1].Kind"},
		{"NaN fraction", base(func(p *Profile) { p.FPFrac = math.NaN() }), "FPFrac"},
		{"fraction above 1", base(func(p *Profile) { p.Streams[0].WriteFrac = 1.5 }), "Streams[0].WriteFrac"},
		{"mem plus branch above 1", base(func(p *Profile) { p.MemRatio, p.BranchRatio = 0.7, 0.4 }), "MemRatio + BranchRatio"},
		{"negative weight", base(func(p *Profile) { p.Streams[0].Weight = -1 }), "Streams[0].Weight"},
		{"infinite weight", base(func(p *Profile) { p.Streams[0].Weight = math.Inf(1) }), "Streams[0].Weight"},
		{"zero weights", base(func(p *Profile) {
			for i := range p.Streams {
				p.Streams[i].Weight = 0
			}
		}), "weights"},
		{"too many phase offsets", base(func(p *Profile) {
			p.Streams[0].PhasePeriod = 1000
			p.Streams[0].PhaseOffsets = make([]float64, maxPhaseOffsets+1)
		}), "Streams[0].PhaseOffsets"},
		{"phase offset above 1", base(func(p *Profile) { p.Streams[0].PhaseOffsets = []float64{2} }), "Streams[0].PhaseOffsets[0]"},
		{"burst past 32 bits", base(func(p *Profile) { p.Streams[0].Burst = 1 << 32 }), "Streams[0].Burst"},
		{"phase edges too dense", phaseStorm(64), "PhasePeriod"},
	}
	for _, tc := range cases {
		err := tc.prof.Validate(1)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.field)
		}
	}
}

// FuzzProfileValidate: any profile Validate accepts (as JSON, the form an
// inline spec profile arrives in) builds at any scale and runs 4,096
// instructions of FillBatch and of Skip without panicking. The checked-in
// corpus holds the three profiles that once crashed the executor and a
// suite profile.
func FuzzProfileValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, profJSON []byte, scale uint64) {
		var p Profile
		if json.Unmarshal(profJSON, &p) != nil || p.Validate(scale) != nil {
			return
		}
		var b mem.Batch
		var br []Branch
		p.NewProgram(scale).FillBatch(4096, &b, &br)
		p.NewProgram(scale).Skip(4096)
	})
}
