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
	// maxPhaseWork bounds the table work phase gating adds per
	// instruction: every phase edge rebuilds the stream-selection tables
	// (rebuildWeights), one step per stream and per burst plus the
	// 256-entry selector LUT, and edges per instruction times steps per
	// rebuild must stay at or below it. The suite's one phased profile,
	// calculix, costs 2.1e-4 at Scale 1024; 64 streams of 64 offsets with
	// PhasePeriod 64 at Scale 1 cost 5.7e5 and ran Skip 1,000x slower
	// than the suite.
	maxPhaseWork = 1.0
)

// Validate reports whether NewProgram can build the profile at scale and
// run it: 1..maxStreams streams of known kinds, overlays of earlier
// streams only, finite fractions in [0, 1] with MemRatio+BranchRatio <= 1,
// finite non-negative stream weights with a positive sum, at most
// maxPhaseOffsets phase offsets per stream, bursts up to maxBurst, and
// phase edges no denser than maxPhaseWork allows at scale. Profiles
// arriving from outside (inline spec profiles) must pass it before
// anything instantiates them.
func (p *Profile) Validate(scale uint64) error {
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
	if w := p.phaseWork(scale); w > maxPhaseWork {
		return fmt.Errorf("PhasePeriod: phase edges cost %.3g table steps per instruction at scale %d, want at most %v",
			w, scale, maxPhaseWork)
	}
	return nil
}

// phaseWork returns the rebuild work phase gating costs per instruction
// at scale: every stream's scaled burst edges (a start and an end per
// burst per period, as NewProgram lays them out) times the steps of one
// rebuild. Coinciding edges share a rebuild, so this is an upper bound.
func (p *Profile) phaseWork(scale uint64) float64 {
	scale = max(1, scale)
	steps := float64(256 + len(p.Streams))
	var edges float64
	for _, s := range p.Streams {
		if s.PhasePeriod == 0 {
			continue
		}
		bursts := float64(max(1, len(s.PhaseOffsets)))
		steps += bursts
		edges += 2 * bursts / float64(max(1, s.PhasePeriod/scale))
	}
	return edges * steps
}
