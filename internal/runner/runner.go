// Package runner is the sharded experiment-execution engine every
// evaluation driver in the repository goes through: the sampling layer's
// benchmark × methodology matrix, the figures' sensitivity sweeps, the
// design-space exploration's Analyst fan-out, the co-run matrix, the lab
// service and all CLIs.
//
// A Job is declarative: a Spec — a registered, named experiment kind with
// a serializable parameter struct (see internal/spec) — whose canonical
// SHA-256 key is the unit of identity. The engine provides what every
// caller used to hand-roll:
//
//   - a bounded worker pool (GOMAXPROCS by default, overridable), instead
//     of one goroutine per job;
//   - a two-tier result cache with single-flight semantics: an in-memory
//     map spanning the engine's lifetime, optionally backed by a
//     persistent artifact store (internal/artifact), so identical
//     experiments never re-run — not within a matrix, not across matrices,
//     and with a store not even across processes. With a store, the store
//     is the cache of record and the map holds only in-flight entries, so
//     a long-lived service's memory does not grow with every result;
//   - nested execution (Sub): a composite spec runs its sub-experiments
//     through the same engine, sharing the cache and the single-flight
//     path (e.g. a co-run calibration reuses the app's size-independent
//     solo profile no matter which matrix cell asks first);
//   - streaming progress callbacks so CLIs and the lab service can report
//     completion without owning the scheduling.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Spec is the runner's view of a declarative experiment: a named kind, a
// canonical content-hash key, a human-readable identity triple, and an
// executor. The concrete implementation lives in internal/spec; the
// interface lives here so the runner does not depend on the registry (the
// registry's executors depend on packages that use the runner).
type Spec interface {
	// Kind is the registered experiment kind (e.g. "sampling", "dse-sweep").
	Kind() string
	// Key is the canonical-encoding SHA-256 of the spec. Two specs with
	// equal keys are the same experiment and share one result.
	Key() string
	// Identity returns the (bench, method, extra) triple that labels
	// progress events and derives the per-job RNG seed stream.
	Identity() (bench, method, extra string)
	// Run executes the experiment. Sub-experiments must go through sub so
	// they hit the engine's cache and single-flight path.
	Run(sub Sub) (any, error)
}

// Sub lets an executing spec run nested specs on the same engine and
// exposes the context its own execution is bound to. Executors should
// check Context() at natural work boundaries (per region, per quantum
// batch) and abandon the run with Context().Err() when it is cancelled —
// the engine never caches an errored result, so a cancelled key is
// immediately re-runnable.
type Sub interface {
	RunSpec(s Spec) (any, error)
	Context() context.Context
}

// Store is the persistent tier behind the in-memory result cache. Load
// misses on absent, corrupt or incompatible artifacts (never errors — the
// runner recomputes); Save persists best-effort. internal/artifact
// implements it.
type Store interface {
	Load(kind, key string) (any, bool)
	Save(kind, key string, val any)
}

// Job is one unit of experiment execution.
type Job struct {
	Spec Spec
}

// Key returns the job's cache key (the spec's canonical content hash).
func (j Job) Key() string { return j.Spec.Key() }

// Progress is one streaming completion event.
type Progress struct {
	Done, Total int
	// Kind/Key identify the spec; Bench/Method/Extra are its display triple.
	Kind, Key            string
	Bench, Method, Extra string
	// Cached marks results not executed by this call; FromStore marks the
	// subset served by the persistent artifact store.
	Cached    bool
	FromStore bool
	Elapsed   time.Duration
}

// Engine executes job matrices on a bounded worker pool with a two-tier
// single-flight result cache. The zero value is not usable; construct with
// New. An Engine may be shared across many RunMatrix/RunSpec calls (and
// goroutines) so that the cache spans a whole CLI run or service lifetime.
type Engine struct {
	// Workers bounds concurrent jobs; <= 0 means GOMAXPROCS.
	Workers int
	// OnProgress, when set, streams one event per completed job (nested
	// sub-specs included). Calls are serialized, so callers may write
	// terminal output directly.
	OnProgress func(Progress)
	// Store, when set, backs the in-memory cache with persistent
	// artifacts: misses consult the store before executing, and freshly
	// executed results are persisted. A completed entry then leaves the
	// map as soon as its value is saved or served from the store; the map
	// keeps only in-flight entries, for single-flight.
	Store Store

	mu         sync.Mutex
	cache      map[string]*cacheEntry
	hits       uint64
	misses     uint64
	storeHits  uint64
	executions uint64

	progMu sync.Mutex
}

type cacheEntry struct {
	done      chan struct{}
	val       any
	err       error
	fromStore bool
}

// New returns an engine with the given worker bound (<= 0: GOMAXPROCS).
func New(workers int) *Engine {
	return &Engine{Workers: workers, cache: make(map[string]*cacheEntry)}
}

// PoolSize resolves a requested worker count (<= 0: GOMAXPROCS).
func PoolSize(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// CacheStats returns how many job lookups hit the in-memory cache and how
// many executed (store hits count as neither — see StoreHits).
func (e *Engine) CacheStats() (hits, misses uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hits, e.misses
}

// StoreHits returns how many job lookups were served by the persistent
// artifact store without executing.
func (e *Engine) StoreHits() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.storeHits
}

// HasCached reports whether key has a live in-memory cache entry —
// currently executing (joining it via RunSpec rides the single-flight path
// instead of duplicating work) or, on a store-less engine, completed
// successfully. A store-backed engine's completed results live in the
// store, which callers probe separately. The fleet
// router uses it as a cheap "will RunSpec be free?" probe before deciding
// to proxy a job to its owner node.
func (e *Engine) HasCached(key string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.cache[key]
	return ok
}

// Executions returns how many spec executions this engine actually
// started (cache and store hits excluded, nested sub-specs included).
// It is the counter the fleet's zero-duplicate-execution invariant sums
// across nodes: for a deduplicated workload, per-node Executions must add
// up to the single-node execution count.
func (e *Engine) Executions() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.executions
}

// RunMatrix executes the jobs and returns their results in matrix order.
// Duplicate jobs — within the matrix, against earlier matrices on the same
// engine, or against a persisted artifact — execute once and share the
// cached result. An executor error panics: driver-side specs are validated
// at construction, so a failing executor is a bug, not an input error
// (the lab service, which takes untrusted specs, validates at decode and
// uses RunSpec, which returns errors).
func (e *Engine) RunMatrix(jobs []Job) []any {
	out := make([]any, len(jobs))
	done := 0
	ForEach(len(jobs), e.Workers, func(i int) {
		v, err := e.runJob(context.Background(), jobs[i].Spec, len(jobs), &done)
		if err != nil {
			bench, method, _ := jobs[i].Spec.Identity()
			panic(fmt.Sprintf("runner: job %s/%s (%s): %v", bench, method, jobs[i].Spec.Kind(), err))
		}
		out[i] = v
	})
	return out
}

// RunSpec executes (or serves from cache) a single spec on the engine's
// cache and single-flight path. It is both the Sub implementation handed
// to executors for nested experiments and the lab service's entry point.
func (e *Engine) RunSpec(s Spec) (any, error) {
	return e.RunSpecCtx(context.Background(), s)
}

// RunSpecCtx is RunSpec bound to a context: a cancelled ctx aborts the
// job cooperatively. A queued or waiting caller returns ctx.Err()
// immediately; an executing spec observes the cancellation through
// Sub.Context() at its next check point (sub-spec boundary, region or
// quantum batch) and unwinds with an error. Errored executions — cancelled
// ones included — are never cached, so the key is re-runnable on the same
// engine without restart.
func (e *Engine) RunSpecCtx(ctx context.Context, s Spec) (any, error) {
	done := 0
	return e.runJob(ctx, s, 1, &done)
}

// Context implements Sub for the engine itself (top-level RunMatrix
// executors): an unbound, never-cancelled context.
func (e *Engine) Context() context.Context { return context.Background() }

// EngineStore exposes the engine's persistent store tier to executors
// that manage auxiliary artifacts beyond the engine's own result caching
// (e.g. mid-run progress checkpoints, which exist precisely because the
// result is not finished yet). Nil when the engine runs store-less.
// Executors reach it by type-asserting their Sub:
//
//	if sa, ok := sub.(interface{ EngineStore() runner.Store }); ok { ... }
func (e *Engine) EngineStore() Store { return e.Store }

// boundSub is the Sub handed to an executing spec: nested specs run on
// the same engine bound to the parent job's context, so cancelling a
// composite job cancels the whole nested tree.
type boundSub struct {
	e   *Engine
	ctx context.Context
}

func (b boundSub) RunSpec(s Spec) (any, error) {
	done := 0
	return b.e.runJob(b.ctx, s, 1, &done)
}

func (b boundSub) Context() context.Context { return b.ctx }

// EngineStore exposes the engine's store tier (see Engine.EngineStore).
func (b boundSub) EngineStore() Store { return b.e.Store }

// runJob executes one spec with single-flight caching: the first caller of
// a key runs it (consulting the persistent store first), concurrent
// duplicates block until the result lands. An executor panic fails the
// job exactly as an executor error does (see execute).
func (e *Engine) runJob(ctx context.Context, s Spec, total int, done *int) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	key := s.Key()
	e.mu.Lock()
	if ent, ok := e.cache[key]; ok {
		e.hits++
		e.mu.Unlock()
		select {
		case <-ent.done:
		case <-ctx.Done():
			// This caller gives up waiting; the executing caller (whose own
			// context may be independent) keeps running.
			return nil, ctx.Err()
		}
		if ent.err != nil {
			// The execution this caller rode failed; the entry is already
			// evicted (see below), so the caller may simply retry.
			return nil, ent.err
		}
		e.progress(s, key, total, done, true, ent.fromStore, time.Since(start))
		return ent.val, nil
	}
	ent := &cacheEntry{done: make(chan struct{})}
	e.cache[key] = ent
	e.mu.Unlock()

	if e.Store != nil {
		if v, ok := e.Store.Load(s.Kind(), key); ok {
			ent.val, ent.fromStore = v, true
			e.mu.Lock()
			e.storeHits++
			e.evictLocked(key, ent)
			e.mu.Unlock()
			close(ent.done)
			e.progress(s, key, total, done, true, true, time.Since(start))
			return ent.val, nil
		}
	}

	e.mu.Lock()
	e.misses++
	e.executions++
	e.mu.Unlock()
	ent.val, ent.err = execute(s, boundSub{e: e, ctx: ctx})
	if ent.err == nil && e.Store != nil {
		e.Store.Save(s.Kind(), key, ent.val)
	}
	if ent.err != nil || e.Store != nil {
		// Never cache a failure: a transient error (or a cancellation)
		// must not poison the key for the engine's lifetime. Evict before
		// waking the waiters so no new caller can join the dead entry and
		// the next lookup re-executes. A success with a store leaves too:
		// the next lookup loads the saved artifact (Save is best-effort, so
		// a lost save costs one re-execution, never a wrong result).
		e.mu.Lock()
		e.evictLocked(key, ent)
		e.mu.Unlock()
	}
	close(ent.done)
	if ent.err != nil {
		return nil, ent.err
	}
	e.progress(s, key, total, done, false, false, time.Since(start))
	return ent.val, ent.err
}

// PanicError is the error of a job whose executor panicked: the panic
// value and the stack of the goroutine that ran the job. One bad spec
// fails its own job, on the error path, instead of the process.
type PanicError struct {
	Value any
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("runner: executor panic: %v\n%s", p.Value, p.Stack)
}

// Recovered turns a value recovered from a panic into a *PanicError that
// carries the current goroutine's stack. A value that already is one
// passes through unchanged, so a panic re-raised on the caller of a
// ForEach fan-out keeps the stack of the goroutine where it began.
func Recovered(r any) *PanicError {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// execute runs s on the calling goroutine and turns a panic there into a
// *PanicError. The goroutines a spec spawns (the DSE fan-out on
// ForEach) contain their panics and re-raise them on the spawning
// goroutine, so they end up here too.
func execute(s Spec, sub Sub) (val any, err error) {
	defer func() {
		if r := recover(); r != nil {
			val, err = nil, Recovered(r)
		}
	}()
	return s.Run(sub)
}

// evictLocked removes ent from the cache unless a newer entry has replaced
// it. The caller holds e.mu.
func (e *Engine) evictLocked(key string, ent *cacheEntry) {
	if e.cache[key] == ent {
		delete(e.cache, key)
	}
}

func (e *Engine) progress(s Spec, key string, total int, done *int, cached, fromStore bool, d time.Duration) {
	if e.OnProgress == nil {
		e.progMu.Lock()
		*done++
		e.progMu.Unlock()
		return
	}
	bench, method, extra := s.Identity()
	e.progMu.Lock()
	*done++
	p := Progress{Done: *done, Total: total, Kind: s.Kind(), Key: key,
		Bench: bench, Method: method, Extra: extra,
		Cached: cached, FromStore: fromStore, Elapsed: d}
	e.OnProgress(p)
	e.progMu.Unlock()
}

// ForEach runs fn(0..n-1) on a bounded worker pool (workers <= 0:
// GOMAXPROCS) and waits for all calls to finish. It is the low-level shard
// primitive for fan-outs whose units are not cacheable jobs — e.g. the
// DSE driver's per-region Analyst fan-out, where every Analyst owns slot i
// of the result.
//
// A panic in fn stops the pool: calls already running finish, no further
// index starts, and once every worker has exited the first panic is
// re-raised on the caller as a *PanicError carrying the panicking worker's
// stack.
func ForEach(n, workers int, fn func(i int)) {
	workers = PoolSize(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		stopped atomic.Bool
		once    sync.Once
		first   *PanicError
	)
	call := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				pe := Recovered(r)
				once.Do(func() { first = pe })
				stopped.Store(true)
			}
		}()
		fn(i)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if !stopped.Load() {
					call(i)
				}
			}
		}()
	}
	for i := 0; i < n && !stopped.Load(); i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if first != nil {
		panic(first)
	}
}
