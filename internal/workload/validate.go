package workload

import (
	"fmt"
	"math"
)

// Bounds Validate enforces on a profile. The suite's largest profile has
// 4 streams and 2 phase offsets; the caps leave room for custom workloads
// while keeping NewProgram's per-stream tables (one []uint32 of length n
// per Rand stream) and burst lists small.
const (
	maxStreams      = 64
	maxPhaseOffsets = 64
	// maxBurst keeps a stream's burst length positive once NewProgram
	// narrows it to 32 bits (Skip divides by it).
	maxBurst = math.MaxInt32
)

// Validate reports whether NewProgram can build the profile and run it:
// 1..maxStreams streams of known kinds, overlays of earlier streams only,
// finite fractions in [0, 1] with MemRatio+BranchRatio <= 1, finite
// non-negative stream weights with a positive sum, at most
// maxPhaseOffsets phase offsets per stream and bursts up to maxBurst.
// Profiles arriving from outside (inline spec profiles) must pass it
// before anything instantiates them.
func (p *Profile) Validate() error {
	notFrac := func(v float64) bool { return math.IsNaN(v) || v < 0 || v > 1 }
	fracErr := func(name string, v float64) error {
		return fmt.Errorf("%s = %v, want a fraction in [0, 1]", name, v)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"MemRatio", p.MemRatio}, {"BranchRatio", p.BranchRatio}, {"FPFrac", p.FPFrac},
		{"RandomBranchFrac", p.RandomBranchFrac}} {
		if notFrac(f.v) {
			return fracErr(f.name, f.v)
		}
	}
	if p.MemRatio+p.BranchRatio > 1 {
		return fmt.Errorf("MemRatio + BranchRatio = %v, want <= 1", p.MemRatio+p.BranchRatio)
	}
	if n := len(p.Streams); n < 1 || n > maxStreams {
		return fmt.Errorf("Streams: %d streams, want 1 to %d", n, maxStreams)
	}
	var weights float64
	for i, s := range p.Streams {
		// Field names are formatted only on the error path: Validate runs
		// on every spec decode.
		field := func(name string) string { return fmt.Sprintf("Streams[%d].%s", i, name) }
		switch {
		case s.Kind > Chase:
			return fmt.Errorf("%s = %d, want Seq (0), Rand (1) or Chase (2)", field("Kind"), s.Kind)
		case s.OverlayOf < 0 || s.OverlayOf > i:
			return fmt.Errorf("%s = %d, want 0 or an earlier stream (1 to %d)", field("OverlayOf"), s.OverlayOf, i)
		case math.IsNaN(s.Weight) || math.IsInf(s.Weight, 0) || s.Weight < 0:
			return fmt.Errorf("%s = %v, want finite and non-negative", field("Weight"), s.Weight)
		case notFrac(s.WriteFrac):
			return fracErr(field("WriteFrac"), s.WriteFrac)
		case notFrac(s.PhaseDuty):
			return fracErr(field("PhaseDuty"), s.PhaseDuty)
		case len(s.PhaseOffsets) > maxPhaseOffsets:
			return fmt.Errorf("%s: %d offsets, want at most %d", field("PhaseOffsets"), len(s.PhaseOffsets), maxPhaseOffsets)
		case s.Burst < 0 || s.Burst > maxBurst:
			return fmt.Errorf("%s = %d, want 0 to %d", field("Burst"), s.Burst, maxBurst)
		}
		for j, o := range s.PhaseOffsets {
			if notFrac(o) {
				return fracErr(fmt.Sprintf("%s[%d]", field("PhaseOffsets"), j), o)
			}
		}
		weights += s.Weight
	}
	if !(weights > 0) || math.IsInf(weights, 0) {
		return fmt.Errorf("Streams: weights sum to %v, want a positive finite sum", weights)
	}
	return nil
}
