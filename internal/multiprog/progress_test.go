package multiprog

import (
	"reflect"
	"testing"

	"repro/internal/workload"
)

// TestResumedRunMatchesStraight is the mid-run checkpoint layer's
// bit-exactness oracle, asserted across the full 24-profile suite: run a
// probe engine with periodic progress capture, pick a checkpoint from the
// middle of the measured window, resume a fresh engine from it, and the
// resumed run must be deep-equal to the straight-through one — results AND
// final deep state. The probe's own completed run must also match, pinning
// that the capture hook has no side effects on the simulation.
func TestResumedRunMatchesStraight(t *testing.T) {
	cfg := ckTestConfig(128)
	for _, prof := range workload.Benchmarks() {
		profs := []*workload.Profile{prof}
		straight := NewCoSim(profs, cfg)
		straight.WarmAlign()
		wantRes := straight.RunMeasured()

		probe := NewCoSim(profs, cfg)
		probe.WarmAlign()
		var mid *CoSimCheckpoint
		fires := 0
		probe.SetProgress(50, func(pc *CoSimCheckpoint) {
			if fires++; fires == 3 {
				mid = pc
			}
		})
		if probeRes := probe.RunMeasured(); !reflect.DeepEqual(probeRes, wantRes) {
			t.Errorf("%s: progress capture perturbed the probe run", prof.Name)
			continue
		}
		if mid == nil {
			t.Fatalf("%s: progress hook fired %d times, never reached the mid-window capture", prof.Name, fires)
		}

		resumed := restoreThroughJSON(t, profs, cfg, mid)
		if gotRes := resumed.RunMeasured(); !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("%s: resumed result diverged:\n got  %+v\n want %+v", prof.Name, gotRes, wantRes)
			continue
		}
		if got, want := resumed.Checkpoint(), straight.Checkpoint(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: resumed final deep state diverged from straight run", prof.Name)
		}
	}
}

// TestCancelledMixResumesFromProgress is the crash/cancel scenario on a
// contended 4-app mix with prefetchers on: the first run is cancelled
// mid-measured-window, its last persisted progress checkpoint resumes a
// fresh engine, and the completed resumed run must match the straight run
// exactly — the paid-for portion of the window is never recomputed and
// never diverges.
func TestCancelledMixResumesFromProgress(t *testing.T) {
	cfg := ckTestConfig(64)
	cfg.Prefetch = true
	profs := []*workload.Profile{workload.Mcf(), workload.Lbm(), workload.Omnetpp(), workload.Xalancbmk()}

	straight := NewCoSim(profs, cfg)
	straight.WarmAlign()
	wantRes := straight.RunMeasured()

	interrupted := NewCoSim(profs, cfg)
	interrupted.WarmAlign()
	var last *CoSimCheckpoint
	saves := 0
	interrupted.SetProgress(40, func(pc *CoSimCheckpoint) {
		last = pc
		saves++
	})
	killed := false
	interrupted.Cfg.Cancel = func() bool {
		// Kill the run once a couple of checkpoints are on record: the
		// cancel lands mid-window with real progress to resume from.
		killed = killed || saves >= 2
		return killed
	}
	_ = interrupted.RunMeasured() // partial; a real caller discards this
	if !killed || last == nil {
		t.Fatalf("cancel never landed mid-window (saves=%d)", saves)
	}

	resumed := restoreThroughJSON(t, profs, cfg, last)
	if gotRes := resumed.RunMeasured(); !reflect.DeepEqual(gotRes, wantRes) {
		t.Errorf("resumed-after-cancel result diverged:\n got  %+v\n want %+v", gotRes, wantRes)
	}
	if got, want := resumed.Checkpoint(), straight.Checkpoint(); !reflect.DeepEqual(got, want) {
		t.Error("resumed-after-cancel final deep state diverged from straight run")
	}
}

// TestProgressRejectsBadShape: a mid-window checkpoint names no machine,
// so a restore onto one it does not fit — another LLC size, the
// prefetcher toggled, another mix — must fail on the state's geometry
// instead of continuing on the wrong machine.
func TestProgressRejectsBadShape(t *testing.T) {
	cfg := ckTestConfig(64)
	profs := []*workload.Profile{workload.Mcf(), workload.Lbm()}
	cs := NewCoSim(profs, cfg)
	cs.WarmAlign()
	var mid *CoSimCheckpoint
	cs.SetProgress(40, func(ck *CoSimCheckpoint) {
		if mid == nil {
			mid = ck
		}
	})
	cs.RunMeasured()
	if mid == nil || mid.Apps[0].Meas.Instructions == 0 {
		t.Fatal("no mid-window capture")
	}

	bigger := ckTestConfig(256)
	prefetch := cfg
	prefetch.Prefetch = true
	for _, tc := range []struct {
		name  string
		profs []*workload.Profile
		cfg   CoSimConfig
	}{
		{"a 4x larger LLC", profs, bigger},
		{"the prefetcher on", profs, prefetch},
		{"one app of the mix", profs[:1], cfg},
		{"the mix reversed", []*workload.Profile{profs[1], profs[0]}, cfg},
	} {
		if _, err := NewCoSimFromCheckpoint(tc.profs, tc.cfg, mid); err == nil {
			t.Errorf("resume onto %s accepted the checkpoint", tc.name)
		}
	}
}
