package runner_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/runner"
	"repro/internal/spec"
	"repro/internal/warm"
	"repro/internal/workload"
)

func testCfg() warm.Config {
	cfg := warm.DefaultConfig()
	cfg.Regions = 2
	cfg.PaperGap = 600_000
	cfg.Scale = 1
	cfg.VicinityEvery = 5_000
	return cfg
}

func testProf(name string, seed uint64) *workload.Profile {
	return &workload.Profile{
		Name: name, MemRatio: 0.4, BranchRatio: 0.1, LoopDuty: 16,
		RandomBranchFrac: 0.05, ILP: 4, CodeKiB: 8, Seed: seed,
		Streams: []workload.StreamSpec{
			{Kind: workload.Rand, Weight: 0.6, PaperBytes: 4 * 1024, PCs: 8},
			{Kind: workload.Rand, Weight: 0.4, PaperBytes: 256 * 1024, PCs: 4},
		},
	}
}

// matrix builds a small mixed-method spec matrix over two benchmarks
// outside the suite — their profiles ride inline in the specs.
func matrix(cfg warm.Config) []runner.Job {
	var jobs []runner.Job
	for _, p := range []*workload.Profile{testProf("rt-a", 11), testProf("rt-b", 23)} {
		for _, m := range []string{spec.MethodSMARTS, spec.MethodCoolSim, spec.MethodDeLorean} {
			jobs = append(jobs, spec.Job(spec.SamplingParams{Bench: spec.Ref(p), Method: m, Cfg: cfg}))
		}
	}
	return jobs
}

// fnSpec is a closure-backed test spec for engine-mechanics tests that
// need to count or order executions without paying for real experiments.
type fnSpec struct {
	key  string
	exec func(sub runner.Sub) (any, error)
}

func (s fnSpec) Kind() string                       { return "test" }
func (s fnSpec) Key() string                        { return s.key }
func (s fnSpec) Identity() (string, string, string) { return "t", "test", s.key }
func (s fnSpec) Run(sub runner.Sub) (any, error)    { return s.exec(sub) }

// TestDeterminismAcrossWorkerCounts is the runner's core guarantee: the
// same matrix run serially and with a full worker pool produces
// bit-identical results (it mirrors the pass-order equivalence
// guarantee in internal/core).
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	cfg := testCfg()
	serial := runner.New(1).RunMatrix(matrix(cfg))
	// Fixed bound > 1 so the parallel leg stays parallel even when
	// GOMAXPROCS is 1 (single-CPU CI).
	parallel := runner.New(8).RunMatrix(matrix(cfg))
	if len(serial) != len(parallel) {
		t.Fatalf("result lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("job %d: serial and parallel results differ", i)
		}
	}
}

// TestCacheSingleFlight: duplicate jobs — across matrices and within one —
// must execute exactly once.
func TestCacheSingleFlight(t *testing.T) {
	var execs int32
	job := runner.Job{Spec: fnSpec{key: "sf", exec: func(runner.Sub) (any, error) {
		atomic.AddInt32(&execs, 1)
		return "result", nil
	}}}
	eng := runner.New(4)
	first := eng.RunMatrix([]runner.Job{job, job, job, job})
	second := eng.RunMatrix([]runner.Job{job})
	if n := atomic.LoadInt32(&execs); n != 1 {
		t.Errorf("job executed %d times, want 1", n)
	}
	for i, v := range first {
		if v != first[0] {
			t.Errorf("duplicate job %d returned a different result", i)
		}
	}
	if second[0] != first[0] {
		t.Error("cross-matrix cache miss")
	}
	hits, misses := eng.CacheStats()
	if misses != 1 || hits != 4 {
		t.Errorf("cache stats = %d hits / %d misses, want 4 / 1", hits, misses)
	}
}

// TestNestedRunSpec: a composite spec's sub-experiments share the cache
// and single-flight path with top-level jobs.
func TestNestedRunSpec(t *testing.T) {
	var innerExecs int32
	inner := fnSpec{key: "inner", exec: func(runner.Sub) (any, error) {
		atomic.AddInt32(&innerExecs, 1)
		return 7, nil
	}}
	outer := func(key string) runner.Job {
		return runner.Job{Spec: fnSpec{key: key, exec: func(sub runner.Sub) (any, error) {
			v, err := sub.RunSpec(inner)
			if err != nil {
				return nil, err
			}
			return v.(int) + 1, nil
		}}}
	}
	eng := runner.New(4)
	out := eng.RunMatrix([]runner.Job{outer("o1"), outer("o2"), outer("o3")})
	for i, v := range out {
		if v.(int) != 8 {
			t.Errorf("outer %d = %v, want 8", i, v)
		}
	}
	if n := atomic.LoadInt32(&innerExecs); n != 1 {
		t.Errorf("nested spec executed %d times, want 1", n)
	}
}

// TestStoreBackedCache: a fresh engine sharing only the artifact store
// with a previous one must serve the whole matrix from disk — zero
// executions — and reproduce the results exactly.
func TestStoreBackedCache(t *testing.T) {
	cfg := testCfg()
	dir := t.TempDir()

	st1, err := spec.OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold := runner.New(4)
	cold.Store = st1
	first := cold.RunMatrix(matrix(cfg))
	if _, misses := cold.CacheStats(); misses != uint64(len(first)) {
		t.Fatalf("cold run executed %d jobs, want %d", misses, len(first))
	}

	st2, err := spec.OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	warmEng := runner.New(4)
	warmEng.Store = st2
	second := warmEng.RunMatrix(matrix(cfg))
	if _, misses := warmEng.CacheStats(); misses != 0 {
		t.Errorf("warm run executed %d jobs, want 0", misses)
	}
	if got, want := warmEng.StoreHits(), uint64(len(first)); got != want {
		t.Errorf("warm run store hits = %d, want %d", got, want)
	}
	for i := range first {
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Errorf("job %d: store round-trip changed the result", i)
		}
	}
}

// memStore is a map-backed runner.Store.
type memStore struct {
	mu sync.Mutex
	m  map[string]any
}

func (s *memStore) Load(kind, key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	return v, ok
}

func (s *memStore) Save(kind, key string, val any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = val
}

// TestStoreBackedEngineHoldsNoResults: with a store attached the store is
// the cache of record, so a long-lived engine (the lab daemon) must not
// pin every result in memory. After N distinct specs the engine holds no
// completed entry, and re-running a key is a store hit, not an execution.
func TestStoreBackedEngineHoldsNoResults(t *testing.T) {
	eng := runner.New(2)
	eng.Store = &memStore{m: map[string]any{}}
	const n = 16
	jobs := make([]runner.Job, n)
	for i := range jobs {
		key := fmt.Sprintf("k%d", i)
		jobs[i] = runner.Job{Spec: fnSpec{key: key, exec: func(runner.Sub) (any, error) {
			return key, nil
		}}}
	}
	eng.RunMatrix(jobs)
	for _, j := range jobs {
		if eng.HasCached(j.Key()) {
			t.Errorf("completed entry %s still held by the engine", j.Key())
		}
	}
	if got := eng.Executions(); got != n {
		t.Fatalf("executions = %d, want %d", got, n)
	}

	hits := eng.StoreHits()
	v, err := eng.RunSpec(jobs[3].Spec)
	if err != nil || v != "k3" {
		t.Fatalf("re-run = %v, %v; want k3", v, err)
	}
	if got := eng.Executions(); got != n {
		t.Errorf("re-run executed: executions = %d, want %d", got, n)
	}
	if got := eng.StoreHits(); got != hits+1 {
		t.Errorf("store hits = %d, want %d", got, hits+1)
	}
	if eng.HasCached(jobs[3].Key()) {
		t.Error("store-served entry still held by the engine")
	}
}

func TestRunMatrixOrderAndProgress(t *testing.T) {
	var jobs []runner.Job
	for i := 0; i < 17; i++ {
		i := i
		jobs = append(jobs, runner.Job{Spec: fnSpec{key: fmt.Sprintf("k%02d", i),
			exec: func(runner.Sub) (any, error) { return i, nil }}})
	}
	eng := runner.New(3)
	var events int
	eng.OnProgress = func(p runner.Progress) {
		events++
		if p.Total != len(jobs) {
			t.Errorf("progress total = %d, want %d", p.Total, len(jobs))
		}
		if p.Done < 1 || p.Done > len(jobs) {
			t.Errorf("progress done out of range: %d", p.Done)
		}
		if p.Kind != "test" || p.Bench != "t" {
			t.Errorf("progress identity = %q/%q", p.Kind, p.Bench)
		}
	}
	out := eng.RunMatrix(jobs)
	for i, v := range out {
		if v.(int) != i {
			t.Errorf("result %d out of order: got %v", i, v)
		}
	}
	if events != len(jobs) {
		t.Errorf("got %d progress events, want %d", events, len(jobs))
	}
}

func TestForEach(t *testing.T) {
	for _, workers := range []int{1, 2, 16} {
		n := 100
		out := make([]int, n)
		runner.ForEach(n, workers, func(i int) { out[i] = i + 1 })
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("workers=%d: slot %d = %d", workers, i, v)
			}
		}
	}
	runner.ForEach(0, 4, func(int) { t.Fatal("fn called for n=0") })
}

// TestErrorNotCached: a flaky executor — fails once, then succeeds — must
// succeed on the second RunSpec of the same key. The regression this
// pins: the engine used to leave the errored single-flight entry in the
// cache, so a transient failure poisoned the key for the engine's whole
// lifetime (every later caller got the stale error without executing).
func TestErrorNotCached(t *testing.T) {
	var execs int32
	flaky := fnSpec{key: "flaky", exec: func(runner.Sub) (any, error) {
		if atomic.AddInt32(&execs, 1) == 1 {
			return nil, errors.New("transient")
		}
		return "ok", nil
	}}
	eng := runner.New(2)
	if _, err := eng.RunSpec(flaky); err == nil || err.Error() != "transient" {
		t.Fatalf("first run: err = %v, want transient", err)
	}
	v, err := eng.RunSpec(flaky)
	if err != nil {
		t.Fatalf("second run after transient failure: %v", err)
	}
	if v != "ok" {
		t.Fatalf("second run = %v, want ok", v)
	}
	if n := atomic.LoadInt32(&execs); n != 2 {
		t.Errorf("executed %d times, want 2 (fail, then retry)", n)
	}
}

// TestErrorSharedBySingleFlightWaiters: callers that rode a failing
// execution all observe the error, and the key is immediately re-runnable.
func TestErrorSharedBySingleFlightWaiters(t *testing.T) {
	var execs int32
	release := make(chan struct{})
	sp := fnSpec{key: "shared-err", exec: func(runner.Sub) (any, error) {
		atomic.AddInt32(&execs, 1)
		<-release
		return nil, errors.New("boom")
	}}
	eng := runner.New(4)
	const waiters = 4
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = eng.RunSpec(sp)
		}(i)
	}
	// Let every caller reach the cache (one executes, the rest wait).
	for {
		if hits, _ := eng.CacheStats(); hits == waiters-1 {
			break
		}
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err == nil || err.Error() != "boom" {
			t.Errorf("waiter %d: err = %v, want boom", i, err)
		}
	}
	if n := atomic.LoadInt32(&execs); n != 1 {
		t.Fatalf("failing job executed %d times, want 1", n)
	}
	// The failed entry must be evicted: a retry executes again.
	okSpec := fnSpec{key: "shared-err", exec: func(runner.Sub) (any, error) {
		return 42, nil
	}}
	if v, err := eng.RunSpec(okSpec); err != nil || v != 42 {
		t.Fatalf("retry after shared failure: v=%v err=%v", v, err)
	}
}

// TestPanicContained: an executor panic fails its job instead of the
// process. The caller and a concurrent joiner get the same error, which
// carries the panic value and the stack, and the single-flight entry is
// evicted, so a retry executes again.
func TestPanicContained(t *testing.T) {
	var execs int32
	release := make(chan struct{})
	sp := fnSpec{key: "panics", exec: func(runner.Sub) (any, error) {
		atomic.AddInt32(&execs, 1)
		<-release
		panic("bad spec")
	}}
	eng := runner.New(2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = eng.RunSpec(sp)
		}(i)
	}
	// Let the joiner reach the in-flight entry before the executor panics.
	for {
		if hits, _ := eng.CacheStats(); hits == 1 {
			break
		}
	}
	close(release)
	wg.Wait()
	var pe *runner.PanicError
	if !errors.As(errs[0], &pe) || pe.Value != "bad spec" {
		t.Fatalf("err = %v, want a PanicError carrying the panic value", errs[0])
	}
	if !strings.Contains(string(pe.Stack), "TestPanicContained") {
		t.Errorf("panic stack does not name the panicking executor:\n%s", pe.Stack)
	}
	if errs[1] != errs[0] {
		t.Errorf("joiner err = %v, want the executor's %v", errs[1], errs[0])
	}
	if n := atomic.LoadInt32(&execs); n != 1 {
		t.Fatalf("panicking job executed %d times, want 1", n)
	}
	if eng.HasCached("panics") {
		t.Fatal("the panicked entry is still in flight")
	}
	okSpec := fnSpec{key: "panics", exec: func(runner.Sub) (any, error) {
		atomic.AddInt32(&execs, 1)
		return 42, nil
	}}
	if v, err := eng.RunSpec(okSpec); err != nil || v != 42 {
		t.Fatalf("retry after panic: v=%v err=%v", v, err)
	}
	if n := atomic.LoadInt32(&execs); n != 2 {
		t.Fatalf("retry did not re-execute: %d executions, want 2", n)
	}
}

// TestRunSpecCtxCancelledBeforeStart: an already-cancelled context aborts
// before the spec executes.
func TestRunSpecCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := runner.New(1)
	_, err := eng.RunSpecCtx(ctx, fnSpec{key: "never", exec: func(runner.Sub) (any, error) {
		t.Error("executor ran under a cancelled context")
		return nil, nil
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, misses := eng.CacheStats(); misses != 0 {
		t.Errorf("cancelled-before-start counted %d misses", misses)
	}
}

// TestCancelDuringRunThenRerun: a spec that observes Sub.Context() unwinds
// when the context is cancelled mid-run, and the same key re-runs to
// completion on the same engine afterwards — the acceptance property for
// labd's DELETE /v1/jobs/{key} + resubmit flow.
func TestCancelDuringRunThenRerun(t *testing.T) {
	var execs int32
	running := make(chan struct{})
	sp := fnSpec{key: "cancellable", exec: func(sub runner.Sub) (any, error) {
		if atomic.AddInt32(&execs, 1) == 1 {
			close(running)
			<-sub.Context().Done() // cooperative executor: observes cancellation
			return nil, sub.Context().Err()
		}
		return "done", nil
	}}
	eng := runner.New(2)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := eng.RunSpecCtx(ctx, sp)
		errCh <- err
	}()
	<-running
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	v, err := eng.RunSpec(sp) // fresh (background) context: must re-execute
	if err != nil || v != "done" {
		t.Fatalf("re-run after cancellation: v=%v err=%v", v, err)
	}
	if n := atomic.LoadInt32(&execs); n != 2 {
		t.Errorf("executed %d times, want 2 (cancelled, then re-run)", n)
	}
}

// TestNestedContextPropagation: the Sub handed to an executor carries the
// parent job's context, so cancelling a composite job cancels its whole
// nested tree.
func TestNestedContextPropagation(t *testing.T) {
	inner := fnSpec{key: "nested-inner", exec: func(sub runner.Sub) (any, error) {
		<-sub.Context().Done()
		return nil, sub.Context().Err()
	}}
	outer := fnSpec{key: "nested-outer", exec: func(sub runner.Sub) (any, error) {
		return sub.RunSpec(inner)
	}}
	eng := runner.New(2)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := eng.RunSpecCtx(ctx, outer)
		errCh <- err
	}()
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("nested cancellation: err = %v, want context.Canceled", err)
	}
}
