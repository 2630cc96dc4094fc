package main

import (
	"encoding/json"
	"io"
	"reflect"
	"testing"
	"time"
)

func loadTestManifest(t *testing.T) *manifest {
	t.Helper()
	man, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return man
}

func toyRun(t *testing.T, workload string, trace bool, want digests) *runOut {
	t.Helper()
	ro, err := run(options{workload: workload, seed: 1, trace: trace, toy: true, workDir: t.TempDir(), want: want}, io.Discard)
	if err != nil {
		t.Fatalf("trace %v: %v", trace, err)
	}
	return ro
}

// TestWorkloadsSmoke runs every workload of BENCHMARK.json at a toy size
// and checks the report it would print: every declared metric with its
// declared unit, and a result line that survives a JSON round trip. One
// traced run covers both reports: its untraced repetitions (and the
// warm-up) take the untraced code path, and the digests check that both
// paths simulate the same results.
func TestWorkloadsSmoke(t *testing.T) {
	man := loadTestManifest(t)
	declared := map[string]bool{}
	for _, d := range append(man.EndToEnd, man.PerLayer...) {
		declared[d.Name] = true
	}
	measured := map[string]bool{}
	for _, w := range man.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if _, ok := workloads[w.Name]; !ok {
				t.Fatalf("BENCHMARK.json names workload %q, which perfbench does not know", w.Name)
			}
			ro := toyRun(t, w.Name, true, nil)
			if !ro.res.Correct || ro.res.Failed != 0 || ro.res.Attempted < 1 {
				t.Errorf("correct %v, %d of %d failed", ro.res.Correct, ro.res.Failed, ro.res.Attempted)
			}
			for name := range ro.m {
				measured[name] = true
				if !declared[name] {
					t.Errorf("%s is measured but BENCHMARK.json does not declare it", name)
				}
			}
			for _, traced := range []bool{false, true} {
				emitted, err := man.emit(ro.m, traced)
				if err != nil {
					t.Fatalf("traced %v: %v", traced, err)
				}
				res := *ro.res
				res.Metrics = emitted
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var back result
				if err := json.Unmarshal(line, &back); err != nil || !reflect.DeepEqual(back, res) {
					t.Errorf("traced %v: result does not round-trip: %v\n%s", traced, err, line)
				}
			}
		})
	}
	for name := range declared {
		if !measured[name] {
			t.Errorf("BENCHMARK.json declares %s, which no workload measures", name)
		}
	}
}

// TestWrongDigestFailsRun checks that a simulated output differing from
// its reference fails the run.
func TestWrongDigestFailsRun(t *testing.T) {
	ro := toyRun(t, "sampling", false, digests{"smarts": "0", "delorean": "0"})
	if ro.res.Correct || ro.res.Failed == 0 {
		t.Fatalf("wrong reference digests: correct %v, failed %d", ro.res.Correct, ro.res.Failed)
	}
	// The reference of a seeded part applies at seed 1 only.
	chk := checker{want: digests{"coolsim": "x"}, seeded: map[string]bool{"coolsim": true}, seed: 2}
	if bad := chk.check(digests{"coolsim": "y"}); bad != 0 {
		t.Errorf("seeded part checked against the seed-1 reference at seed 2: %d failures", bad)
	}
	if bad := chk.check(digests{"coolsim": "z"}); bad != 1 {
		t.Errorf("a repetition differing from the first: %d failures, want 1", bad)
	}
}

// TestPercentileNearestRank pins percentile to the nearest-rank definition
// lab.RunLoad uses: rank q·n rounded to the nearest whole number.
func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, tc := range []struct {
		vs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.99, 7},
		{ten, 0.50, 5},
		{ten, 0.90, 9},
		{ten, 0.91, 9}, // rank 9.1 rounds to 9
		{ten, 0.96, 10},
		{ten, 0.99, 10},
		{ten, 0.10, 1},
		{ten, 0.14, 1},
		{ten, 0.16, 2},
		{ten, 0, 1},
		{[]float64{1, 2, 3, 4}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.75, 3}, // rank 3
		{[]float64{1, 2, 3, 4}, 0.9, 4},  // rank 3.6 rounds to 4
		{[]float64{3, 1, 2}, 0.5, 2},     // rank 1.5 rounds up
	} {
		if got := percentile(tc.vs, tc.q); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.vs, tc.q, got, tc.want)
		}
	}
}

// TestSelfTimes pins the self-time split on a labd-shaped request: the
// execution starts before the client's submit returns and is attributed
// to the deeper span, so the parts add up to the request exactly.
func TestSelfTimes(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{Name: "lab.request", Start: ms(0), End: ms(10), Parent: -1},
		{Name: "lab.submit", Start: ms(0), End: ms(3), Parent: 0},
		{Name: "lab.wait", Start: ms(3), End: ms(10), Parent: 0},
		{Name: "runner.sampling", Start: ms(2), End: ms(9), Parent: 2},
		{Name: "artifact.store.save", Start: ms(8), End: ms(9), Parent: 3},
		{Name: "other.root", Start: ms(4), End: ms(6), Parent: -1}, // concurrent, its own tree
	}
	want := []time.Duration{0, ms(2), ms(1), ms(6), ms(1), ms(2)}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}
