package workload

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/mem"
)

// TestSuiteProfilesValidate: every registered benchmark passes the check
// inline profiles must pass.
func TestSuiteProfilesValidate(t *testing.T) {
	for _, p := range Benchmarks() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
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
	}
	for _, tc := range cases {
		err := tc.prof.Validate()
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
		if json.Unmarshal(profJSON, &p) != nil || p.Validate() != nil {
			return
		}
		var b mem.Batch
		var br []Branch
		p.NewProgram(scale).FillBatch(4096, &b, &br)
		p.NewProgram(scale).Skip(4096)
	})
}
