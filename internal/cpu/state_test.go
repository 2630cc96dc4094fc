package cpu

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/workload"
)

// TestCoreStateRoundTrip: for every suite profile, a mid-run core's state
// (timing wheel, ROB slot, outstanding-miss table, MSHR ring, branch
// predictor) must survive encode → JSON → decode → restore into a fresh
// core deep-equal. The State encoding is canonical (outstanding misses
// sorted, MSHR ring flattened), so capture-after-restore equality is
// exact even though the internal table layouts differ.
func TestCoreStateRoundTrip(t *testing.T) {
	const scale = 64
	hcfg := cache.DefaultHierarchy(8<<20, scale)
	for _, prof := range workload.Benchmarks() {
		core := NewCore(DefaultConfig(), cache.NewHierarchy(hcfg, nil), NewBranchPred(DefaultBPConfig()))
		core.Run(prof.NewProgram(scale), 20_000)
		want := core.State()

		b, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("%s: encode: %v", prof.Name, err)
		}
		var decoded CoreState
		if err := json.Unmarshal(b, &decoded); err != nil {
			t.Fatalf("%s: decode: %v", prof.Name, err)
		}
		fresh := NewCore(DefaultConfig(), cache.NewHierarchy(hcfg, nil), NewBranchPred(DefaultBPConfig()))
		if err := fresh.SetState(decoded); err != nil {
			t.Fatalf("%s: restore: %v", prof.Name, err)
		}
		if got := fresh.State(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round-tripped core state diverged:\n got  %+v\n want %+v", prof.Name, got, want)
		}
	}
}

// TestCoreStateRejectsShapeMismatch: a state captured from a differently
// shaped machine (ROB size, MSHR count, predictor tables), or one no run
// reaches (a ROB slot past the ring, an in-flight line listed twice, an
// in-flight table over its cap), must be rejected on restore.
func TestCoreStateRejectsShapeMismatch(t *testing.T) {
	hcfg := cache.DefaultHierarchy(8<<20, 64)
	core := NewCore(DefaultConfig(), cache.NewHierarchy(hcfg, nil), NewBranchPred(DefaultBPConfig()))
	core.Run(workload.Mcf().NewProgram(64), 10_000)
	s := core.State()

	small := DefaultConfig()
	small.ROB = len(s.Completion) / 2
	if err := NewCore(small, cache.NewHierarchy(hcfg, nil), NewBranchPred(DefaultBPConfig())).SetState(s); err == nil {
		t.Error("restore accepted a wrong-ROB-size state")
	}

	bpc := DefaultBPConfig()
	bpc.LocalEntries /= 2
	if err := NewCore(DefaultConfig(), cache.NewHierarchy(hcfg, nil), NewBranchPred(bpc)).SetState(s); err == nil {
		t.Error("restore accepted a wrong-predictor-geometry state")
	}

	fresh := func() *Core {
		return NewCore(DefaultConfig(), cache.NewHierarchy(hcfg, nil), NewBranchPred(DefaultBPConfig()))
	}
	bad := s
	bad.RobSlot = len(s.Completion)
	if err := fresh().SetState(bad); err == nil {
		t.Error("restore accepted a ROB slot past the ring")
	}
	bad = s
	bad.Outstanding = []OutstandingMiss{{Line: 7, Complete: 1}, {Line: 7, Complete: 2}}
	if err := fresh().SetState(bad); err == nil {
		t.Error("restore accepted an in-flight line listed twice")
	}
	bad = s
	bad.Outstanding = make([]OutstandingMiss, inFlightPerMSHR*hcfg.L1D.MSHRs+1)
	for i := range bad.Outstanding {
		bad.Outstanding[i] = OutstandingMiss{Line: uint64(i), Complete: 1}
	}
	if err := fresh().SetState(bad); err == nil {
		t.Error("restore accepted an in-flight table longer than the MSHR geometry allows")
	}
}

// TestCoreStateGoldenFixture pins the CoreState wire format with a
// checked-in JSON literal from before the Core field reordering, so
// checkpoints persisted by earlier builds restore bit-exactly into the
// relaid-out core. The in-memory layout moved (hot cluster first, padding
// added); the canonical encoding — sorted outstanding table, flattened
// MSHR ring, base64 predictor tables — must not.
func TestCoreStateGoldenFixture(t *testing.T) {
	const fixture = `{"cycle":9,"width_count":1,"fetch_stall":11,"rob_slot":2,"max_complete":15,` +
		`"completion":[7,9,4,6],` +
		`"outstanding":[{"line":3,"complete":15},{"line":9,"complete":12}],` +
		`"mshr_free":[12,15],` +
		`"bp":{"local":"AAECAw==","global":"AwIBAA==","choice":"AQECAg==","btb":[40,96],"ghr":5,"lookups":31,"mispredicts":4}}`

	cfg := Config{Width: 2, ROB: 4, IQ: 4, LQ: 4, SQ: 4, MispredictPenalty: 5,
		BP: BPConfig{LocalEntries: 4, GlobalEntries: 4, ChoiceEntries: 4, BTBEntries: 2}}
	newCore := func() *Core { return NewCore(cfg, nil, NewBranchPred(cfg.BP)) }

	var s CoreState
	if err := json.Unmarshal([]byte(fixture), &s); err != nil {
		t.Fatalf("decode fixture: %v", err)
	}
	c := newCore()
	if err := c.SetState(s); err != nil {
		t.Fatalf("restore fixture: %v", err)
	}

	// Re-encoding the restored core must reproduce the fixture bytes.
	got, err := json.Marshal(c.State())
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if string(got) != fixture {
		t.Fatalf("wire format drifted:\n got  %s\n want %s", got, fixture)
	}

	// And a second core restored from the re-encoded state must capture
	// deep-equal — the fork path every checkpoint consumer takes.
	var s2 CoreState
	if err := json.Unmarshal(got, &s2); err != nil {
		t.Fatalf("decode re-encoded: %v", err)
	}
	fork := newCore()
	if err := fork.SetState(s2); err != nil {
		t.Fatalf("restore re-encoded: %v", err)
	}
	if want := c.State(); !reflect.DeepEqual(fork.State(), want) {
		t.Errorf("forked core state diverged:\n got  %+v\n want %+v", fork.State(), want)
	}
}
