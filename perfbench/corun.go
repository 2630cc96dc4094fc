package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"repro/internal/figures"
	"repro/internal/runner"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/warm"
	"repro/internal/workload"
)

// corunWorkers is the co-run matrix's runner pool size.
const corunWorkers = 2

// corunBench is the co-run validation figure: the scenario × LLC-size
// matrix through a fresh runner engine per repetition.
type corunBench struct {
	cfg   warm.Config
	mixes []figures.CoRunScenario
	sizes []uint64
	// nestedIn maps the key of a spec that executors run as a nested spec
	// to the keys of the specs that nest it: a corun-calibrate nests its
	// app's corun-profile, a corun-sim its mix's corun-warm.
	nestedIn map[string][]string
	chk      checker
	reps     int
	last     []figures.CoRunCell
	dg       digests
	execs    uint64 // executions summed over the traced repetitions
}

func newCorun(o options, _ *recorder) (bench, error) {
	cfg := warm.DefaultConfig()
	cfg.Scale = 256
	cfg.Seed = o.seed
	mixes, sizes := figures.CoRunMixes(false), figures.CoRunSizes(false)
	if o.toy {
		// A co-run cell's work does not shrink with Scale; the toy size
		// is one mix of the short grid.
		cfg.Scale = 1024
		mixes, sizes = figures.CoRunMixes(true)[:1], figures.CoRunSizes(true)
	}
	b := &corunBench{
		cfg: cfg, mixes: mixes, sizes: sizes,
		nestedIn: map[string][]string{},
		// No co-run kind reads warm.Config.Seed: every part is checked at
		// every seed.
		chk: checker{want: o.want, seed: o.seed},
	}
	for _, size := range b.sizes {
		c := cfg
		c.LLCPaperBytes = size
		for _, sc := range b.mixes {
			refs := make([]spec.BenchRef, len(sc.Apps))
			for i, app := range sc.Apps {
				refs[i] = spec.Ref(app)
				cal, err := spec.New(spec.CoRunCalParams{Bench: refs[i], Cfg: c})
				if err != nil {
					return nil, err
				}
				prof, err := spec.New(spec.CoRunProfileParamsFor(refs[i], c))
				if err != nil {
					return nil, err
				}
				b.nestedIn[prof.Key()] = append(b.nestedIn[prof.Key()], cal.Key())
			}
			sim, err := spec.New(spec.CoRunSimParams{Mix: sc.Name, Apps: refs, Cfg: c})
			if err != nil {
				return nil, err
			}
			wsp, err := spec.New(spec.CoRunWarmParams{Mix: sc.Name, Apps: refs, Cfg: c})
			if err != nil {
				return nil, err
			}
			b.nestedIn[wsp.Key()] = append(b.nestedIn[wsp.Key()], sim.Key())
		}
	}
	return b, nil
}

func (b *corunBench) rep(rec *recorder) (repOut, error) {
	id := fmt.Sprintf("rep-%d", b.reps)
	b.reps++
	eng := runner.New(corunWorkers)
	if rec.enabled() {
		eng.OnProgress = rec.progress
	}
	t0 := time.Now()
	root := rec.begin("figures.corun_matrix", -1, id, "", "")
	cells := figures.CoRunMatrix(eng, b.mixes, b.sizes, b.cfg)
	rec.end(root)
	wall := time.Since(t0)
	if rec.enabled() {
		b.execs += eng.Executions()
	}

	d, err := digest(cells)
	if err != nil {
		return repOut{}, err
	}
	b.dg = digests{"cells": d}
	failed := b.chk.check(b.dg)
	if want := len(b.mixes) * len(b.sizes); len(cells) != want {
		failed++
	}
	b.last = cells
	return repOut{lat: []time.Duration{wall}, attempted: 1, failed: failed}, nil
}

func (b *corunBench) digests() digests { return b.dg }

// link makes every runner event of a nested spec a child of the execution
// that nested it: an execution of the nesting kind whose key nests this
// one and whose interval contains the event. Everything else stays a
// root, one tree per pool job. The slack absorbs the gap between a job's
// end and its progress call, which the engine serializes.
func (b *corunBench) link(spans []span) {
	const slack = time.Millisecond
	for i := range spans {
		parents := b.nestedIn[spans[i].ID]
		if len(parents) == 0 {
			continue
		}
		for j, p := range spans {
			if j == i || p.Name != "runner."+p.Kind || !slices.Contains(parents, p.ID) {
				continue
			}
			if p.Start <= spans[i].Start+slack && spans[i].End <= p.End+slack {
				spans[i].Parent = j
				break
			}
		}
	}
}

func (b *corunBench) layers(m metrics, spans []span, tr tracedReps, w io.Writer) []*layer {
	b.link(spans)
	self := selfTimes(spans)
	ls := layers(spans, self)
	// The matrix span is a root of its own, so its self time is its whole
	// wall; what the matrix code adds on top of the pool is the time no job ran
	// (job submission and the StatCC prediction after the matrix lands).
	var outside, used time.Duration
	for i, s := range spans {
		if s.Name != "figures.corun_matrix" {
			used += self[i]
			continue
		}
		var jobs [][2]time.Duration
		for _, j := range spans {
			if j.Parent < 0 && j.Name != s.Name && j.End > s.Start && j.Start < s.End {
				jobs = append(jobs, [2]time.Duration{j.Start, j.End})
			}
		}
		outside += s.dur() - covered(jobs, s.Start, s.End)
	}
	for _, l := range ls {
		if l.Name == "figures.corun_matrix" {
			l.Self = outside
		}
	}
	used += outside
	selfPct(m, ls, tr.capacity)
	m.set("runner.idle_pct", 100-pct(used, tr.capacity), "%")
	m.set("runner.executions", float64(b.execs)/float64(tr.ops), "count")

	var missErrs []float64
	for _, c := range b.last {
		for _, a := range c.Apps {
			missErrs = append(missErrs, a.MissError())
		}
	}
	m.set("multiprog.statcc_miss_err", stats.Mean(missErrs), "frac")
	seen := map[string]bool{}
	var apps []*workload.Profile
	for _, sc := range b.mixes {
		for _, p := range sc.Apps {
			if !seen[p.Name] {
				seen[p.Name] = true
				apps = append(apps, p)
			}
		}
	}
	m.set("workload.skip_ns_per_instr", skipProbe(apps, b.cfg.Scale, b.cfg.Gap()), "ns/instr")
	var matrix time.Duration
	for _, s := range spans {
		if s.Name == "figures.corun_matrix" {
			matrix += s.dur()
		}
	}
	m.set("trace.reconcile_pct", pct(matrix, tr.wall), "%")
	fmt.Fprintf(w, "reconcile: matrix spans %.4f s vs measured wall %.4f s (%.2f %%); pool busy %.2f %% of %d workers\n",
		matrix.Seconds(), tr.wall.Seconds(), pct(matrix, tr.wall), pct(used-outside, tr.capacity), corunWorkers)
	return ls
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	var cuts []time.Duration
	cuts = append(cuts, lo, hi)
	for _, v := range iv {
		cuts = append(cuts, v[0], v[1])
	}
	var total time.Duration
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for c := 0; c+1 < len(cuts); c++ {
		a, z := cuts[c], cuts[c+1]
		if a < lo || z > hi || a == z {
			continue
		}
		for _, v := range iv {
			if v[0] <= a && v[1] >= z {
				total += z - a
				break
			}
		}
	}
	return total
}

func (b *corunBench) close() {}
