// Mid-run progress checkpoints: where checkpoint.go captures the engine at
// the WarmAlign/RunMeasured cut, this file captures it *inside* the
// measured window, so a crashed or cancelled co-run resumes from
// its last quantum boundary instead of re-running the whole window. A
// resumed run is bit-identical to a straight one (pinned by
// TestResumedRunMatchesStraight over the full suite): the min-cycle
// scheduler is a pure function of the per-app clocks, all of which ride in
// the checkpoint, and the partially accumulated measured stats ride along
// so the final result sees one contiguous window.
package multiprog

import (
	"fmt"

	"repro/internal/cpu"
)

// ProgressVersion identifies the ProgressCheckpoint encoding, versioned
// independently of CheckpointVersion (the embedded state carries its own).
const ProgressVersion = 1

// ProgressCheckpoint is a co-run engine frozen mid-measured-window: the
// complete engine state at a quantum boundary plus each app's measured
// stats accumulated so far. Like CoSimCheckpoint it is an immutable,
// self-contained value — NewCoSimFromProgress deep-copies everything out.
type ProgressCheckpoint struct {
	Version int `json:"version"`
	// Meas is each app's measured-window stats so far, in app order.
	Meas []cpu.Stats `json:"meas"`
	// State is the full engine state (clocks, cores, hierarchies, shared
	// LLC, program positions) at the capture boundary.
	State *CoSimCheckpoint `json:"state"`
}

// Progress captures the engine mid-measured-window. Valid at any quantum
// boundary; the result shares no mutable storage with the engine.
func (cs *CoSim) Progress() *ProgressCheckpoint {
	pc := &ProgressCheckpoint{
		Version: ProgressVersion,
		Meas:    make([]cpu.Stats, len(cs.apps)),
		State:   cs.Checkpoint(),
	}
	for i, a := range cs.apps {
		pc.Meas[i] = a.meas
	}
	return pc
}

// SetProgress arms periodic progress capture: fn is called with a fresh
// ProgressCheckpoint every `every` measured quanta (0 disarms). Like
// CoSimConfig.Cancel this is an execution hint — it never enters
// serialization or spec identity, and the capture happens at a quantum
// boundary so the checkpoint is always resumable.
func (cs *CoSim) SetProgress(every uint64, fn func(*ProgressCheckpoint)) {
	if every == 0 || fn == nil {
		cs.progressEvery, cs.onProgress = 0, nil
		return
	}
	cs.progressEvery, cs.onProgress = every, fn
}

// NewCoSimFromProgress resumes a fresh, independent engine from a mid-run
// progress checkpoint: fork the embedded state, then restore the measured
// stats so RunMeasured continues (and finishes) the original window.
func NewCoSimFromProgress(pc *ProgressCheckpoint) (*CoSim, error) {
	if pc.Version != ProgressVersion {
		return nil, fmt.Errorf("multiprog: progress version %d, engine understands %d", pc.Version, ProgressVersion)
	}
	if pc.State == nil {
		return nil, fmt.Errorf("multiprog: progress checkpoint has no engine state")
	}
	if len(pc.Meas) != len(pc.State.Apps) {
		return nil, fmt.Errorf("multiprog: progress has %d measured-stat entries but %d apps", len(pc.Meas), len(pc.State.Apps))
	}
	cs, err := NewCoSimFromCheckpoint(pc.State)
	if err != nil {
		return nil, err
	}
	for i, a := range cs.apps {
		a.meas = pc.Meas[i]
	}
	return cs, nil
}
