// Package perf is the repository's performance harness: a set of named
// end-to-end scenarios covering the simulation hot paths (solo
// trace→cache→reuse pipeline, a shared-LLC co-run matrix cell, the DSE
// Analyst fan-out, key-reuse exploration) and a measurement loop that
// reports ns/access, allocs/access and accesses/sec for each.
//
// cmd/bench drives the harness and persists the results as JSON
// (BENCH_baseline.json / BENCH_after.json at the repo root record the perf
// trajectory of the batching PR; CI re-runs the quick mode and fails on
// regression). Every future perf PR extends this file with new scenarios
// rather than inventing one-off timing loops.
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// Schema identifies the BENCH_*.json layout; bump on incompatible change.
const Schema = "delorean-bench/v1"

// Measurement is one scenario's aggregate over the measured repetitions.
// The work unit is one simulated memory access driven through the
// scenario's hot path; wall time includes everything a real caller pays
// (trace generation, fast-forwarding, model bookkeeping), so ns/access is
// an end-to-end figure, not a microbenchmark of one function.
type Measurement struct {
	Scenario       string  `json:"scenario"`
	Reps           int     `json:"reps"`
	Accesses       uint64  `json:"accesses"`
	WallNs         int64   `json:"wall_ns"`
	NsPerAccess    float64 `json:"ns_per_access"`
	AccessesPerSec float64 `json:"accesses_per_sec"`
	// NsPerAccessMedian is the median over repetitions of each rep's own
	// ns/access. The mean above stays the continuity metric (it is what
	// every historical BENCH_*.json records), but the median is what CI
	// gates on: one repetition stalled by a slow fsync or a scheduling
	// hiccup moves the mean of a short run by tens of percent while
	// leaving the median untouched. Zero in reports written before the
	// field existed; Compare falls back to the mean then.
	NsPerAccessMedian float64 `json:"ns_per_access_median,omitempty"`
	AllocsPerAccess   float64 `json:"allocs_per_access"`
	BytesPerAccess    float64 `json:"bytes_per_access"`
}

// Report is the persisted form of one harness run.
type Report struct {
	Schema    string        `json:"schema"`
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	Quick     bool          `json:"quick"`
	Scenarios []Measurement `json:"scenarios"`
}

// Scenario is one named end-to-end experiment.
type Scenario struct {
	Name string
	Desc string
	// Setup builds all scenario state (sized for quick or full mode) and
	// returns the per-repetition step function. Each step processes one
	// steady-state window — construction cost lives in Setup or inside the
	// step, whichever matches how real callers amortize it — and returns
	// the number of memory accesses it drove. Setup may also return a
	// cleanup function (nil if none) that RunAll invokes after measurement —
	// the hook scenarios with on-disk state use to remove it.
	Setup func(quick bool) (step func() uint64, cleanup func())
}

// RunAll measures the given scenarios and assembles a report. A
// non-empty profileDir adds one CPU profile per scenario, written to
// profileDir/<scenario>.pprof — the harness hook for perf hunts, where a
// whole-run profile smears the scenarios' flame graphs into one another.
func RunAll(scens []Scenario, quick bool, targetDur time.Duration, profileDir string) (*Report, error) {
	if profileDir != "" {
		if err := os.MkdirAll(profileDir, 0o755); err != nil {
			return nil, err
		}
	}
	r := &Report{
		Schema:    Schema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Quick:     quick,
	}
	for _, s := range scens {
		m, err := run(s, quick, targetDur, profileDir)
		if err != nil {
			return nil, err
		}
		r.Scenarios = append(r.Scenarios, m)
	}
	return r, nil
}

// run measures one scenario: Setup and a warm-up repetition (faults in
// tables and sizes the flat structures so the measured window is steady
// state), then repetitions until targetDur has elapsed (at least two).
// Each repetition is also timed individually so the measurement carries a
// median ns/access alongside the aggregate mean; the per-rep clock reads
// add two time.Now calls per repetition — noise-floor cost next to a
// multi-millisecond step. The CPU profile, when profileDir is set, covers
// exactly the measured repetitions.
func run(s Scenario, quick bool, targetDur time.Duration, profileDir string) (Measurement, error) {
	step, cleanup := s.Setup(quick)
	if cleanup != nil {
		defer cleanup()
	}
	step() // warm-up repetition, unmeasured and unprofiled
	runtime.GC()
	if profileDir != "" {
		f, err := os.Create(filepath.Join(profileDir, s.Name+".pprof"))
		if err != nil {
			return Measurement{}, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return Measurement{}, fmt.Errorf("%s: %w", s.Name, err)
		}
		defer pprof.StopCPUProfile()
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	var accesses uint64
	reps := 0
	var perRep []float64 // each rep's own ns/access
	for {
		rt0 := time.Now()
		n := step()
		repWall := time.Since(rt0)
		accesses += n
		reps++
		if n > 0 {
			perRep = append(perRep, float64(repWall.Nanoseconds())/float64(n))
		}
		if reps >= 2 && time.Since(t0) >= targetDur {
			break
		}
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	m := Measurement{
		Scenario: s.Name,
		Reps:     reps,
		Accesses: accesses,
		WallNs:   wall.Nanoseconds(),
	}
	if accesses > 0 {
		acc := float64(accesses)
		m.NsPerAccess = float64(wall.Nanoseconds()) / acc
		m.AccessesPerSec = acc / wall.Seconds()
		m.NsPerAccessMedian = median(perRep)
		m.AllocsPerAccess = float64(after.Mallocs-before.Mallocs) / acc
		m.BytesPerAccess = float64(after.TotalAlloc-before.TotalAlloc) / acc
	}
	return m, nil
}

// median returns the median of vs (0 when empty). vs is sorted in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// WriteJSON persists the report.
func (r *Report) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadReport reads a persisted report.
func LoadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Find returns the named scenario measurement.
func (r *Report) Find(name string) (Measurement, bool) {
	for _, m := range r.Scenarios {
		if m.Scenario == name {
			return m, true
		}
	}
	return Measurement{}, false
}

// Regression is one scenario that got slower than a reference allows.
// Metric names the figure the gate judged ("median ns/access" when both
// reports carry per-rep medians, "mean ns/access" otherwise).
type Regression struct {
	Scenario string
	Metric   string
	RefNs    float64
	CurNs    float64
}

func (g Regression) String() string {
	return fmt.Sprintf("%s: %.1f %s vs reference %.1f (%.0f%% slower)",
		g.Scenario, g.CurNs, g.Metric, g.RefNs, (g.CurNs/g.RefNs-1)*100)
}

// AllocRegression is one scenario whose allocs/access grew past what a
// reference allows.
type AllocRegression struct {
	Scenario  string
	RefAllocs float64
	CurAllocs float64
}

func (g AllocRegression) String() string {
	return fmt.Sprintf("%s: %.2f allocs/access vs reference %.2f",
		g.Scenario, g.CurAllocs, g.RefAllocs)
}

// CompareAllocs returns the scenarios of cur whose allocs/access grew more
// than maxRegress (a fraction) relative to ref, with half an allocation of
// absolute slack on top. Allocation counts are near-deterministic — the
// runtime does not allocate more because the host is loaded — which makes
// this the noise-immune half of the CI perf gate: a wall-clock gate wide
// enough for shared-runner variance still lets a real regression through,
// but a new allocation on a hot path moves allocs/access reliably and gets
// caught here. The absolute slack absorbs the only legitimate jitter:
// once-per-run bookkeeping (timer restarts, map growth) amortized over a
// varying repetition count.
func CompareAllocs(ref, cur *Report, maxRegress float64) []AllocRegression {
	var out []AllocRegression
	for _, c := range cur.Scenarios {
		r, ok := ref.Find(c.Scenario)
		if !ok || r.AllocsPerAccess <= 0 {
			continue
		}
		if c.AllocsPerAccess > r.AllocsPerAccess*(1+maxRegress)+0.5 {
			out = append(out, AllocRegression{Scenario: c.Scenario, RefAllocs: r.AllocsPerAccess, CurAllocs: c.AllocsPerAccess})
		}
	}
	return out
}

// Compare returns the scenarios of cur whose ns/access regressed more than
// maxRegress (a fraction, e.g. 0.20) relative to ref. Scenarios missing
// from either side are skipped: the gate only judges common ground. When
// both sides carry a per-rep median the gate judges the median — one
// outlier repetition (a slow fsync in the store scenario was the
// recurring CI trip) shifts a short run's mean but not its median; the
// mean remains the fallback against reports written before the median
// field existed.
func Compare(ref, cur *Report, maxRegress float64) []Regression {
	var out []Regression
	for _, c := range cur.Scenarios {
		r, ok := ref.Find(c.Scenario)
		if !ok || r.NsPerAccess <= 0 {
			continue
		}
		refNs, curNs, metric := r.NsPerAccess, c.NsPerAccess, "mean ns/access"
		if r.NsPerAccessMedian > 0 && c.NsPerAccessMedian > 0 {
			refNs, curNs, metric = r.NsPerAccessMedian, c.NsPerAccessMedian, "median ns/access"
		}
		if curNs > refNs*(1+maxRegress) {
			out = append(out, Regression{Scenario: c.Scenario, Metric: metric, RefNs: refNs, CurNs: curNs})
		}
	}
	return out
}
