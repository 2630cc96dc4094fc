// Command perfbench is the repository benchmark: four workloads that
// together exercise every layer of the DeLorean reproduction, from the
// Scout → Explorer → Analyst pipeline down to labd's journal fsync. One
// run measures one workload in its own process, so peak memory is per
// workload.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	    [--out FILE] [--spans FILE] [--cpuprofile FILE] [--update-digests]
//
// run.sh builds this package from source and runs it. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The untraced run (--trace 0) reports the end-to-end metrics
// of BENCHMARK.json; the traced run (--trace 1) reports its per-layer
// metrics and prints a per-layer self-time table. Every metric is printed
// by name with its unit above the JSON line. The command exits non-zero
// when an output check fails.
//
// --seed sets warm.Config.Seed for the simulator workloads and the spec
// seed offset for the labd workloads; the program under test only ever
// sees the generated inputs. --spans writes the traced run's spans as
// JSON, --cpuprofile writes a pprof of the measured repetitions (set-up
// and warm-up excluded), and --update-digests (seed 1 only) rewrites the
// reference digests in perfbench/testdata from this run.
//
// # Workloads
//
// A run sets its workload up three times, each set-up followed by one
// unmeasured warm-up repetition, and measures the last set-up's
// repetitions until --seconds have passed. Load comes from this one
// process (GOMAXPROCS = number of CPUs, 2 on the reference host). The
// simulator runs serially or on a 2-worker pool; labd gets 2 workers and
// 2 closed-loop clients, because labd's callers (CLIs, figure scripts, CI)
// each wait for their result before sending the next request.
//
//   - sampling: {mcf, omnetpp, bwaves} × {SMARTS, CoolSim, DeLorean} at
//     Scale 256, one region, called serially through warm.RunSMARTS,
//     warm.RunCoolSim and core.Run with the seed the sampling spec derives
//     (about 2 s per repetition, so about ten repetitions per run; a
//     second region doubles the time and changes no pass's share).
//     It is the paper's headline path plus its reference: fast-forwarding
//     in workload/vm, directed profiling and warm.EvalRegion do the work.
//     The three benchmarks engage 4, 3 and 0 Explorers, so a change on the
//     Explorer side must move mcf and leave bwaves unchanged.
//   - corun: figures.CoRunMatrix over the full grid (3 mixes × 2 LLC
//     sizes) at Scale 256 on a fresh runner.New(2) per repetition. The
//     batched timing core, the shared-LLC cache model, checkpoint forking,
//     reuse profiling and the runner pool do the work; there is no
//     fast-forwarding and no directed profiling, so a change to either must
//     show no change here.
//   - labd-cold: an in-process labd wired like `labd -store DIR -workers 2`
//     on loopback. Each request POSTs a never-seen lab.LoadSpecs body and
//     blocks on /wait: the write path (journal fsync on accept, execution,
//     artifact put with fsync) with no work shared between requests.
//   - labd-warm: set-up executes 64 LoadSpecs bodies into a store. Each
//     repetition restarts a daemon over it (store open + journal replay)
//     and submits every key once; the job ledger starts empty after a
//     restart, so every request is served from disk. It is the read path
//     (restart, envelope verify and decode, HTTP/JSON) with zero
//     executions. Each submit still journals an accepted job with an
//     fsync, even for a spec the store holds; the submit that carries it
//     is about half of a request's time. Against labd-cold it exposes a
//     store change that speeds writes at the expense of reads, or the
//     reverse.
//
// Deliberately not workloads: design-space exploration (ten LLC sizes cost
// only 6–11 % more than one, so its host profile is sampling's DeLorean
// warm-up), the labd fleet (it cannot show anything on 2 cores; CI's
// fleet-smoke covers it), and no workload makes warm.EvalRegion
// dominant (about 5 % of sampling).
//
// # End-to-end metrics
//
// Every workload reports the same four, so that a change is judged on all
// of them everywhere. An operation is one repetition for sampling and
// corun (the whole comparison, the whole figure) and one request for the
// labd workloads.
//
//   - setup_s: the median of the three set-ups, each with its warm-up
//     repetition.
//   - latency_ms_p50: the median host latency of the untraced operations.
//   - throughput_per_s: the median over untraced repetitions of operations
//     per second of repetition time.
//   - peak_rss_mb: the process's peak resident set (getrusage).
//
// There is no tail-latency metric: sampling and corun complete about ten
// and twenty-five operations in a run, too few for a percentile above the
// median to have ten samples beyond it. The run prints the untraced p90
// and p99 with the sample count instead.
//
// Simulated results are not end-to-end metrics: they are exact, so the
// digests gate them, and the traced run reports them per layer
// (sampling.sim_speedup_vs_smarts, sampling.cpi_err_pct,
// multiprog.statcc_miss_err, core.<pass>.sim_s).
//
// # Output checks
//
// Every repetition hashes its simulated results with SHA-256 (sampling:
// regions and counter ledgers per benchmark and method; corun: the
// matrix cells). The hashes must equal the first repetition's and the
// reference in testdata; CoolSim is the only output that depends on the
// seed, so its reference applies at seed 1 only. labd-cold requires every
// job to end done and a sampled artifact to decode to the DeLorean result
// core.Run computes for the same spec; labd-warm additionally requires
// /v1/status to report zero executions after every repetition. Every
// failed check counts in "failed" and fails the run.
//
// # Layers
//
// The traced run records spans from this package's own files around the
// calls into each module's exported functions and interfaces, keeps them
// in memory and derives self times from them (a span's time not covered by
// a deeper span). Traced and untraced repetitions alternate, so the run
// also measures its own tracing overhead. Each layer should move these
// end-to-end metrics:
//
//	layer                         metrics                              moves
//	workload                      skip_ns_per_instr (Program.Skip)     latency on sampling, labd-cold; nothing on corun, labd-warm
//	core                          <pass>.self_pct, <pass>.sim_s, keys  latency on sampling (mcf moves, bwaves must not)
//	warm                          smarts/coolsim self_pct and sim_s    latency on sampling
//	vm                            instructions per mode, triggers      latency on sampling
//	runner/multiprog/cpu/cache    <kind>.self_pct, join, idle          latency and throughput on corun
//	artifact                      store/blob self_pct and call counts  latency on labd-warm (reads), labd-cold (put, fsync)
//	lab                           submit/wait/restart self_pct, syncs  latency and throughput on both labd workloads
//
// Shares are of the workload's worker-time: the traced repetitions' wall
// time, times 2 for corun's pool and labd's clients.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// options configure one run.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	toy      bool   // toy input sizes, for the package tests
	workDir  string // where labd stores live
	want     digests
	// cpuprofile, when set, receives a pprof of the measured repetitions.
	cpuprofile string
}

// bench is one prepared workload.
type bench interface {
	// rep runs one repetition. rec records spans when it is enabled.
	rep(rec *recorder) (repOut, error)
	// layers derives the per-layer metrics of the traced repetitions and
	// returns the layers' self times.
	layers(m metrics, spans []span, tr tracedReps, w io.Writer) []*layer
	// digests returns the simulated outputs' digests of the last
	// repetition (nil for workloads without simulated outputs).
	digests() digests
	close()
}

// repOut is what one repetition measured.
type repOut struct {
	lat       []time.Duration // one per completed operation
	attempted int
	failed    int // failed operations and failed output checks
}

// tracedReps summarizes the traced repetitions for the layer metrics.
type tracedReps struct {
	reps     int
	ops      int
	wall     time.Duration // summed wall time of the traced repetitions
	capacity time.Duration // worker-time the layer shares are taken of
}

// workloads maps names to constructors, which do the workload's set-up.
// rec is the traced run's recorder (nil in untraced runs).
var workloads = map[string]func(o options, rec *recorder) (bench, error){
	"sampling":  newSampling,
	"corun":     newCorun,
	"labd-cold": func(o options, rec *recorder) (bench, error) { return newLabd(o, rec, false) },
	"labd-warm": func(o options, rec *recorder) (bench, error) { return newLabd(o, rec, true) },
}

// setups is how many times a run sets its workload up (setup_s is the
// median).
const setups = 3

// parallelism is the number of concurrent workers (pool workers or
// clients) each workload keeps busy; layer shares are of this many times
// the wall time.
var parallelism = map[string]int{"sampling": 1, "corun": corunWorkers, "labd-cold": labdClients, "labd-warm": labdClients}

// runOut is everything one run measured.
type runOut struct {
	res   *result
	m     metrics
	spans []span  // traced runs only
	dg    digests // the simulated outputs' digests
}

// run sets up a workload, runs its warm-up and measured repetitions, and
// returns what it measured.
func run(o options, out io.Writer) (*runOut, error) {
	mk, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	res := &result{}
	// The workload is set up several times and the last set-up is measured;
	// setup_s is the median. Each set-up includes its warm-up repetition, so
	// a change that moves work out of the repetitions into set-up shows.
	var b bench
	var setupS []float64
	for i := 0; i < setups; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		if b, err = mk(o, rec); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		w, err := b.rep(nil)
		if err != nil {
			b.close()
			return nil, fmt.Errorf("%s: warm-up: %w", o.workload, err)
		}
		res.Attempted += w.attempted
		res.Failed += w.failed
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer b.close()

	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}

	// Untraced and traced repetitions alternate in a traced run; the
	// end-to-end figures come from the untraced ones only.
	minReps := 2
	if o.toy {
		minReps = 1
	}
	if o.trace {
		minReps *= 2
	}
	var lat, tlat []float64
	var rate []float64 // operations per second of each untraced repetition
	var tr tracedReps
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	reps := 0
	for {
		traced := o.trace && reps%2 == 1
		rec.setOn(traced)
		rt := time.Now()
		r, err := b.rep(rec)
		wall := time.Since(rt)
		rec.setOn(false)
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", o.workload, reps, err)
		}
		reps++
		res.Attempted += r.attempted
		res.Failed += r.failed
		dst := &lat
		if traced {
			dst = &tlat
			tr.reps++
			tr.ops += len(r.lat)
			tr.wall += wall
		} else {
			rate = append(rate, float64(len(r.lat))/wall.Seconds())
		}
		for _, d := range r.lat {
			*dst = append(*dst, float64(d.Nanoseconds())/1e6)
		}
		if reps >= minReps && time.Since(start) >= o.seconds {
			break
		}
	}
	elapsed := time.Since(start)
	peak := readPeakRSS()
	runtime.ReadMemStats(&ms1)
	res.Correct = res.Failed == 0

	m := metrics{}
	ops := len(lat) + len(tlat)
	m.set("setup_s", percentile(setupS, 0.50), "s")
	m.set("latency_ms_p50", percentile(lat, 0.50), "ms")
	m.set("throughput_per_s", percentile(rate, 0.50), "1/s")
	m.set("peak_rss_mb", peak, "MiB")
	m.set("go.alloc_mb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20)/float64(ops), "MiB")
	m.set("go.gc_cycles_per_op", float64(ms1.NumGC-ms0.NumGC)/float64(ops), "count")
	fmt.Fprintf(out, "%s: seed %d, set-ups %.3f s, %d repetitions (%d operations, %d untraced) in %.2f s, GOMAXPROCS %d\n",
		o.workload, o.seed, setupS, reps, ops, len(lat), elapsed.Seconds(), runtime.GOMAXPROCS(0))
	// The tail is printed, not reported: the per-repetition workloads have
	// too few operations in a run for a percentile above the median.
	fmt.Fprintf(out, "untraced latency over %d operations: p50 %.4f ms, p90 %.4f ms, p99 %.4f ms\n",
		len(lat), percentile(lat, 0.50), percentile(lat, 0.90), percentile(lat, 0.99))

	ro := &runOut{res: res, m: m, dg: b.digests()}
	if o.trace {
		spans := rec.snapshot()
		ro.spans = spans
		tr.capacity = tr.wall * time.Duration(parallelism[o.workload])
		m.set("trace.latency_ms_p50", percentile(tlat, 0.50), "ms")
		if p := percentile(lat, 0.50); p > 0 {
			m.set("trace.overhead_pct", 100*(percentile(tlat, 0.50)/p-1), "%")
		}
		m.set("trace.spans", float64(len(spans))/float64(tr.reps), "count")
		ls := b.layers(m, spans, tr, out)
		fmt.Fprintf(out, "traced: %d repetitions, %d operations, %.4f s; latency p50 %.3f ms traced vs %.3f ms untraced (overhead %+.2f %%)\n",
			tr.reps, tr.ops, tr.wall.Seconds(), percentile(tlat, 0.50), percentile(lat, 0.50), m["trace.overhead_pct"].Value)
		printLayers(out, ls, tr.capacity)
	}
	return ro, nil
}

func main() {
	var o options
	var secs float64
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: sampling, corun, labd-cold or labd-warm")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&secs, "seconds", 20, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	outFile := flag.String("out", "", "also write the result JSON to this file")
	spansFile := flag.String("spans", "", "traced run: write the spans as JSON to this file")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the measured repetitions to this file")
	update := flag.Bool("update-digests", false, "rewrite perfbench/testdata's reference digests from this run (seed 1)")
	flag.Parse()
	o.seconds = time.Duration(secs * float64(time.Second))
	o.trace = traceFlag == 1
	o.workDir = ".bench_build"

	man, err := loadManifest("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *update && o.seed != 1 {
		fatal(fmt.Errorf("-update-digests needs -seed 1"))
	}
	if o.want, err = referenceDigests(o.workload); err != nil {
		fatal(err)
	}
	if *update {
		o.want = nil
	}
	ro, err := run(o, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if *update {
		if ro.dg == nil {
			fatal(fmt.Errorf("%s has no simulated outputs to digest", o.workload))
		}
		if err := writeDigests("perfbench/testdata", o.workload, ro.dg); err != nil {
			fatal(err)
		}
	}
	if *spansFile != "" {
		if err := writeSpans(*spansFile, ro.spans); err != nil {
			fatal(err)
		}
	}
	res := ro.res
	if res.Metrics, err = man.emit(ro.m, o.trace); err != nil {
		fatal(err)
	}
	printMetrics(os.Stdout, ro.m)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	if *outFile != "" {
		if err := os.WriteFile(*outFile, append(line, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

// printMetrics prints every measured metric by name with its unit.
func printMetrics(w io.Writer, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
