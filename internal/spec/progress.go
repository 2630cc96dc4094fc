// Mid-run progress persistence for co-run cells (DESIGN.md §14): while a
// corun-sim measured window executes with a store attached, the engine
// periodically persists a multiprog.CoSimCheckpoint — the state type of
// the corun-warm cut — under a key derived from the cell's canonical
// identity. The cell's next execution finds a crashed or cancelled run's
// checkpoint — locally, or on another fleet node through the peer
// read-through tier — and resumes from the last paid-for quantum boundary
// instead of re-running the window. Resumption is bit-identical to a
// straight run (multiprog's TestResumedRunMatchesStraight and the
// spec-level resume tests pin this), so progress is purely an execution
// shortcut, never part of a spec's identity or its result.
package spec

import (
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/artifact"
	"repro/internal/multiprog"
	"repro/internal/runner"
)

// KindCoRunProgress is the artifact kind of persisted mid-run progress
// checkpoints. It is an auxiliary kind: stores decode it, but it is not a
// submittable experiment.
const KindCoRunProgress = "corun-progress"

// ProgressEveryQuanta is the checkpoint cadence in measured scheduling
// quanta; 0 stops this process writing progress checkpoints (it still
// resumes from, and deletes, a trail it finds). The default is sized so the
// capture + store write overhead stays under 2% of the corun-cell bench
// (see DESIGN.md §14); it is a tuning knob, never identity — cmd/labd
// exposes it as -progress-every.
var ProgressEveryQuanta uint64 = 4096

// ProgressKey derives the progress artifact's store key from the owning
// spec's canonical key. The derivation is stable across processes and
// nodes, so any executor of the same cell looks in the same place.
func ProgressKey(specKey string) string {
	h := sha256.Sum256([]byte(specKey + "/progress"))
	return hex.EncodeToString(h[:])
}

// subStore returns the executing engine's persistent artifact store, or
// nil when the engine runs store-less (ad-hoc CLIs, unit tests).
func subStore(sub runner.Sub) *artifact.Store {
	sa, ok := sub.(interface{ EngineStore() runner.Store })
	if !ok {
		return nil
	}
	st, _ := sa.EngineStore().(*artifact.Store)
	return st
}

func init() {
	registerAuxCodec(KindCoRunProgress, jsonCodec[*multiprog.CoSimCheckpoint](2))
}
