package multiprog

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"repro/internal/workload"
)

// ckTestConfig is a fast warm-heavy co-sim setup for the fork tests.
func ckTestConfig(llcKiB uint64) CoSimConfig {
	cfg := DefaultCoSimConfig()
	cfg.Scale = 16
	cfg.LLCPaperBytes = llcKiB << 10 * 16
	cfg.WarmupInstr = 30_000
	cfg.MeasureCycles = 80_000
	cfg.Quantum = 25
	return cfg
}

// restoreThroughJSON round-trips a checkpoint through its JSON encoding —
// the exact path a store-persisted checkpoint takes — and restores the
// decoded copy onto a fresh engine for profs on cfg.
func restoreThroughJSON(t *testing.T, profs []*workload.Profile, cfg CoSimConfig, ck *CoSimCheckpoint) *CoSim {
	t.Helper()
	b, err := json.Marshal(ck)
	if err != nil {
		t.Fatalf("encode checkpoint: %v", err)
	}
	var back CoSimCheckpoint
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("decode checkpoint: %v", err)
	}
	cs, err := NewCoSimFromCheckpoint(profs, cfg, &back)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	return cs
}

// TestForkedRunMatchesStraight is the checkpoint layer's bit-exactness
// oracle, asserted across the full 24-profile suite: warm once, snapshot
// through the real JSON encoding, fork, and the forked measured run must
// be deep-equal to the straight-through one — results AND final deep state
// (cores, hierarchies, shared LLC, counters). The straight path stays in
// the tree exactly to serve as this oracle.
func TestForkedRunMatchesStraight(t *testing.T) {
	cfg := ckTestConfig(128)
	for _, prof := range workload.Benchmarks() {
		profs := []*workload.Profile{prof}
		straight := NewCoSim(profs, cfg)
		straight.WarmAlign()
		forked := restoreThroughJSON(t, profs, cfg, straight.Checkpoint())

		wantRes := straight.RunMeasured()
		gotRes := forked.RunMeasured()
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("%s: forked result diverged:\n got  %+v\n want %+v", prof.Name, gotRes, wantRes)
			continue
		}
		if got, want := forked.Checkpoint(), straight.Checkpoint(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: forked final deep state diverged from straight run", prof.Name)
		}
	}
}

// TestForkedMixMatchesStraight covers the shared-LLC + prefetcher corner:
// a 4-app contended mix, prefetchers on, one warm-up forked into two
// independent measured runs — both must match the straight run and each
// other (the checkpoint is never mutated by a fork).
func TestForkedMixMatchesStraight(t *testing.T) {
	cfg := ckTestConfig(64)
	cfg.Prefetch = true
	profs := []*workload.Profile{workload.Mcf(), workload.Lbm(), workload.Omnetpp(), workload.Xalancbmk()}

	straight := NewCoSim(profs, cfg)
	straight.WarmAlign()
	ck := straight.Checkpoint()
	forkedA := restoreThroughJSON(t, profs, cfg, ck)
	forkedB, err := NewCoSimFromCheckpoint(profs, cfg, ck)
	if err != nil {
		t.Fatal(err)
	}

	wantRes := straight.RunMeasured()
	for name, forked := range map[string]*CoSim{"json-fork": forkedA, "direct-fork": forkedB} {
		gotRes := forked.RunMeasured()
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("%s: result diverged:\n got  %+v\n want %+v", name, gotRes, wantRes)
		}
		if got, want := forked.Checkpoint(), straight.Checkpoint(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: final deep state diverged from straight run", name)
		}
	}
}

// TestCheckpointRejectsBadShape: version and shape mismatches fail loudly.
func TestCheckpointRejectsBadShape(t *testing.T) {
	cfg := ckTestConfig(64)
	profs := []*workload.Profile{workload.Mcf()}
	cs := NewCoSim(profs, cfg)
	cs.WarmAlign()
	ck := cs.Checkpoint()

	restore := func(edit func(ck *CoSimCheckpoint)) error {
		bad := *ck
		bad.Apps = slices.Clone(ck.Apps)
		edit(&bad)
		_, err := NewCoSimFromCheckpoint(profs, cfg, &bad)
		return err
	}
	for _, tc := range []struct {
		name string
		edit func(ck *CoSimCheckpoint)
	}{
		{"an unknown checkpoint version", func(ck *CoSimCheckpoint) { ck.Version = CheckpointVersion + 1 }},
		{"a checkpoint missing an app", func(ck *CoSimCheckpoint) { ck.Apps = nil }},
		{"a checkpoint of another app", func(ck *CoSimCheckpoint) { ck.Apps[0].Name = "lbm" }},
		{"a checkpoint with a wrong-geometry LLC", func(ck *CoSimCheckpoint) { ck.LLC.Tags = ck.LLC.Tags[:1] }},
		{"an app carrying its own copy of the shared LLC", func(ck *CoSimCheckpoint) { ck.Apps[0].Hier.LLC = &ck.LLC }},
		{"an app clock behind the aligned cycle", func(ck *CoSimCheckpoint) { ck.Apps[0].Cycles = ck.AlignCycles - 1 }},
		{"a program position no run reaches", func(ck *CoSimCheckpoint) { ck.Apps[0].Prog.CodePos = 1 << 40 }},
	} {
		if err := restore(tc.edit); err == nil {
			t.Errorf("restore accepted %s", tc.name)
		}
	}
}
