package vm

import "repro/internal/workload"

// SeekTo is virtualized fast-forwarding (VFF): it restores the program to
// a captured position and charges the skipped span to the VFF ledger. The
// position skips the host-side replay work, not simulated execution, so
// every ledger-derived figure is what replaying the gap would give. It
// panics if the position is in the past: passes only ever travel forward;
// going "back in time" means a different pass.
func (e *Engine) SeekTo(pos workload.Position) error {
	cur := e.Prog.InstrIndex()
	if cur > pos.InstrIdx {
		panic("vm: SeekTo target is in the past")
	}
	if err := e.Prog.Seek(pos); err != nil {
		return err
	}
	e.charge(KindVFF, float64(pos.InstrIdx-cur))
	return nil
}
