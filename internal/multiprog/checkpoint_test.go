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

// forkThroughJSON round-trips a checkpoint through its JSON encoding — the
// exact path a store-persisted checkpoint takes — and forks from the
// decoded copy.
func forkThroughJSON(t *testing.T, ck *CoSimCheckpoint) *CoSim {
	t.Helper()
	b, err := json.Marshal(ck)
	if err != nil {
		t.Fatalf("encode checkpoint: %v", err)
	}
	var back CoSimCheckpoint
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("decode checkpoint: %v", err)
	}
	forked, err := NewCoSimFromCheckpoint(&back)
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	return forked
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
		straight := NewCoSim([]*workload.Profile{prof}, cfg)
		straight.WarmAlign()
		forked := forkThroughJSON(t, straight.Checkpoint())

		wantRes := straight.RunMeasured()
		gotRes := forked.RunMeasured()
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("%s: forked result diverged:\n got  %+v\n want %+v", prof.Name, gotRes, wantRes)
			continue
		}
		if got, want := forked.Snapshot(), straight.Snapshot(); !reflect.DeepEqual(got, want) {
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
	forkedA := forkThroughJSON(t, ck)
	forkedB, err := NewCoSimFromCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}

	wantRes := straight.RunMeasured()
	for name, forked := range map[string]*CoSim{"json-fork": forkedA, "direct-fork": forkedB} {
		gotRes := forked.RunMeasured()
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("%s: result diverged:\n got  %+v\n want %+v", name, gotRes, wantRes)
		}
		if got, want := forked.Snapshot(), straight.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: final deep state diverged from straight run", name)
		}
	}
}

// TestCheckpointRejectsBadShape: version and shape mismatches fail loudly.
func TestCheckpointRejectsBadShape(t *testing.T) {
	cfg := ckTestConfig(64)
	cs := NewCoSim([]*workload.Profile{workload.Mcf()}, cfg)
	cs.WarmAlign()
	ck := cs.Checkpoint()

	bad := *ck
	bad.Version = CheckpointVersion + 1
	if _, err := NewCoSimFromCheckpoint(&bad); err == nil {
		t.Error("fork accepted an unknown checkpoint version")
	}
	bad = *ck
	bad.Profiles = nil
	if _, err := NewCoSimFromCheckpoint(&bad); err == nil {
		t.Error("fork accepted a checkpoint with mismatched profile count")
	}
	bad = *ck
	bad.LLC.Tags = bad.LLC.Tags[:1]
	if _, err := NewCoSimFromCheckpoint(&bad); err == nil {
		t.Error("fork accepted a checkpoint with a wrong-geometry LLC")
	}
	bad = *ck
	bad.Apps = slices.Clone(ck.Apps)
	bad.Apps[0].Prog.CodePos = 1 << 40
	if _, err := NewCoSimFromCheckpoint(&bad); err == nil {
		t.Error("fork accepted a checkpoint whose program position no run reaches")
	}
}
