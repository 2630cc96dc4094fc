// Checkpoint/restore for the co-run engine. A CoSimCheckpoint is the
// engine's complete state at a quantum boundary, and two cuts use it:
//
//   - the WarmAlign/RunMeasured cut (measured stats zero), from which any
//     number of independent measured runs fork instead of warming up again;
//   - any quantum boundary inside the measured window (SetProgress), from
//     which a crashed or cancelled run resumes instead of re-running the
//     paid-for prefix.
//
// Both restore through NewCoSimFromCheckpoint, and a restored run is
// bit-identical to the same run executed straight through (pinned by
// TestForkedRunMatchesStraight and TestResumedRunMatchesStraight over the
// full suite): the min-cycle scheduler is a pure function of the per-app
// clocks, all of which ride in the checkpoint, and so do the measured
// stats, so the final result sees one contiguous window.
//
// A checkpoint holds state and nothing else. The machine (CoSimConfig) and
// the workloads come from the caller, whose spec key pins them, and the
// State/SetState geometry checks refuse state that does not fit that
// machine.
//
// Copy-on-write discipline (DESIGN.md §10): a checkpoint is an immutable
// value. The runner memoizes decoded artifacts, so one *CoSimCheckpoint
// may be shared by many concurrent consumers; every restore therefore
// deep-copies all state out of it (the State/SetState pairs copy in both
// directions) and never aliases a checkpoint slice from live engine state.
package multiprog

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/workload"
)

// CheckpointVersion identifies the CoSimCheckpoint encoding. Bump on any
// change to the state inventory or field semantics; NewCoSimFromCheckpoint
// rejects versions it does not understand.
const CheckpointVersion = 2

// AppCheckpoint is one app's state: program position, clock, core timing
// state, the per-core hierarchy state (private L1s, prefetcher, per-core
// counters — the shared LLC is stored once in CoSimCheckpoint) and the
// measured-window stats so far.
type AppCheckpoint struct {
	Name   string               `json:"name"`
	Prog   workload.Position    `json:"prog"`
	Cycles uint64               `json:"cycles"`
	Core   cpu.CoreState        `json:"core"`
	Hier   cache.HierarchyState `json:"hier"`
	// Meas is zero at the warm cut.
	Meas cpu.Stats `json:"meas"`
}

// CoSimCheckpoint is the complete state of a co-run engine at a quantum
// boundary: everything a fresh engine built for the same mix and machine
// needs to continue bit-identically.
type CoSimCheckpoint struct {
	Version     int    `json:"version"`
	AlignCycles uint64 `json:"align_cycles"`
	// LLC is the shared last-level cache, stored exactly once (the per-app
	// hierarchy states omit it; see cache.HierarchyState).
	LLC  cache.CacheState `json:"llc"`
	Apps []AppCheckpoint  `json:"apps"`
}

// Checkpoint captures the engine's complete state. Valid at any quantum
// boundary; the result shares no mutable storage with the engine.
func (cs *CoSim) Checkpoint() *CoSimCheckpoint {
	ck := &CoSimCheckpoint{
		Version:     CheckpointVersion,
		AlignCycles: cs.alignStart,
		LLC:         cs.apps[0].core.Hier.LLC.State(),
		Apps:        make([]AppCheckpoint, len(cs.apps)),
	}
	for i, a := range cs.apps {
		ck.Apps[i] = AppCheckpoint{
			Name:   a.name,
			Prog:   a.prog.Position(),
			Cycles: a.cycles,
			Core:   a.core.State(),
			Hier:   a.core.Hier.State(false),
			Meas:   a.meas,
		}
	}
	return ck
}

// NewCoSimFromCheckpoint builds the engine for profs on cfg, then restores
// the checkpoint's state onto it. Call RunMeasured on the result: it runs
// (or finishes) the measured window up to cfg's horizon. Any number of
// engines can be restored from one checkpoint, including concurrently —
// the checkpoint is never written to.
func NewCoSimFromCheckpoint(profs []*workload.Profile, cfg CoSimConfig, ck *CoSimCheckpoint) (*CoSim, error) {
	if ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("multiprog: checkpoint version %d, engine understands %d", ck.Version, CheckpointVersion)
	}
	if len(ck.Apps) == 0 || len(ck.Apps) != len(profs) {
		return nil, fmt.Errorf("multiprog: checkpoint has %d apps, the mix has %d", len(ck.Apps), len(profs))
	}
	cs := NewCoSim(profs, cfg)
	cs.alignStart = ck.AlignCycles
	// The constructor shares one LLC across all cores; restore it once.
	if err := cs.apps[0].core.Hier.LLC.SetState(ck.LLC); err != nil {
		return nil, fmt.Errorf("multiprog: checkpoint LLC: %w", err)
	}
	for i, a := range cs.apps {
		app := &ck.Apps[i]
		switch {
		case app.Name != a.name:
			return nil, fmt.Errorf("multiprog: checkpoint app %d is %q, the mix says %q", i, app.Name, a.name)
		case app.Hier.LLC != nil:
			return nil, fmt.Errorf("multiprog: checkpoint app %q carries its own LLC, the mix shares one", app.Name)
		case app.Cycles < ck.AlignCycles:
			// Every clock reaches the aligned cycle before the window
			// opens; a clock behind it would run past the window.
			return nil, fmt.Errorf("multiprog: checkpoint app %q clock %d is behind the aligned cycle %d", app.Name, app.Cycles, ck.AlignCycles)
		}
		if err := a.prog.Seek(app.Prog); err != nil {
			return nil, fmt.Errorf("multiprog: checkpoint app %q: %w", app.Name, err)
		}
		if err := a.core.SetState(app.Core); err != nil {
			return nil, fmt.Errorf("multiprog: checkpoint app %q: %w", app.Name, err)
		}
		if err := a.core.Hier.SetState(app.Hier); err != nil {
			return nil, fmt.Errorf("multiprog: checkpoint app %q: %w", app.Name, err)
		}
		a.cycles = app.Cycles
		a.meas = app.Meas
	}
	return cs, nil
}
