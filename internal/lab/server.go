// Package lab is the long-running experiment service behind cmd/labd: an
// HTTP front over the spec → runner → artifact-store pipeline. Clients
// POST a serialized spec (internal/spec wire form); the service validates
// it strictly, deduplicates it against running and finished work by its
// canonical key — concurrent identical requests ride the runner's
// single-flight path, repeated ones are served from the in-memory cache or
// the persistent artifact store — executes it on the shared worker pool,
// streams per-job progress, and serves the resulting artifact.
//
// The service is built to stay up under real load (DESIGN.md §11):
// submissions pass admission control (a bounded queue answers 429 +
// Retry-After instead of accepting unbounded work), queued and running
// jobs are cancellable (DELETE /v1/jobs/{key}, or automatically when the
// last /wait client disconnects), failed and cancelled jobs re-arm on
// resubmit instead of serving a stale error forever, the job ledger is
// TTL-pruned so a long-running daemon's memory stays bounded, and
// /metrics exposes the whole pipeline's counters and latency histograms
// in Prometheus text format.
//
// The same package provides the thin-CLI wiring (NewEngine,
// ProgressPrinter) so all five command-line fronts and the service drive
// experiments through one identical pipeline.
package lab

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/runner"
	"repro/internal/spec"
)

// NewEngine builds the standard driver engine: the given worker bound,
// backed by a persistent artifact store when storeDir is non-empty
// (storeMaxBytes <= 0: unbounded). Every CLI's -store/-workers flags and
// labd go through this single constructor.
func NewEngine(workers int, storeDir string, storeMaxBytes int64) (*runner.Engine, *artifact.Store, error) {
	eng := runner.New(workers)
	if storeDir == "" {
		return eng, nil, nil
	}
	st, err := spec.OpenStore(storeDir, storeMaxBytes)
	if err != nil {
		return nil, nil, fmt.Errorf("open artifact store: %w", err)
	}
	eng.Store = st
	return eng, st, nil
}

// NewFleetEngine is NewEngine plus the fleet's artifact tier, the only
// thing fleet nodes share (DESIGN.md §13): the store gets a peer-HTTP
// read-through backend over the given base URLs, so a local miss is
// retried against the fleet (integrity re-verified, then persisted
// locally) before the engine recomputes. Every node may be given the same
// peer list: self, this node's own base URL, is dropped from it, so a
// miss never asks the node itself. Fleet mode requires a store — the peer
// tier is an artifact tier, and a node with nothing to serve would be a
// freeloader that also re-executes everything.
func NewFleetEngine(workers int, storeDir string, storeMaxBytes int64, self string, peers []string, fetchTimeout time.Duration) (*runner.Engine, *artifact.Store, error) {
	if storeDir == "" {
		return nil, nil, fmt.Errorf("fleet mode requires an artifact store (-store)")
	}
	eng, st, err := NewEngine(workers, storeDir, storeMaxBytes)
	if err != nil {
		return nil, nil, err
	}
	self = artifact.NormalizePeerURL(self)
	others := make([]string, 0, len(peers))
	for _, p := range peers {
		if artifact.NormalizePeerURL(p) != self {
			others = append(others, p)
		}
	}
	st.AttachPeers(artifact.NewPeerBlob(others, artifact.PeerOptions{Timeout: fetchTimeout}))
	return eng, st, nil
}

// ProgressPrinter returns the standard per-job progress line writer the
// CLIs install as Engine.OnProgress.
func ProgressPrinter(w io.Writer) func(runner.Progress) {
	return func(p runner.Progress) {
		tag := ""
		switch {
		case p.FromStore:
			tag = " (store)"
		case p.Cached:
			tag = " (cached)"
		}
		fmt.Fprintf(w, "  [%3d/%3d] %s/%s%s %.1fs\n",
			p.Done, p.Total, p.Bench, p.Method, tag, p.Elapsed.Seconds())
	}
}

// JobState values.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// jobStates lists every state, in lifecycle order, for the per-state
// gauges on /metrics and /v1/status.
var jobStates = []string{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled}

// terminal reports whether a state is final. Terminal jobs hold no worker
// slot, are TTL-pruned from the ledger, and — for failed and cancelled
// ones — re-arm on resubmit.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// JobStatus is the wire form of one submitted spec's lifecycle.
type JobStatus struct {
	Key       string `json:"key"`
	Kind      string `json:"kind"`
	Bench     string `json:"bench"`
	Method    string `json:"method"`
	Extra     string `json:"extra,omitempty"`
	State     string `json:"state"`
	Cached    bool   `json:"cached"`     // served without executing (memory, store, or pre-existing job)
	FromStore bool   `json:"from_store"` // subset of Cached: persistent artifact store
	Error     string `json:"error,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

type job struct {
	spec      spec.Spec
	state     string
	cached    bool
	fromStore bool
	err       string
	val       any
	started   time.Time
	finished  time.Time
	elapsed   time.Duration
	done      chan struct{}
	// ctx/cancel bound the execution: DELETE /v1/jobs/{key} (or the last
	// waiter disconnecting) cancels, and the runner plus the engines'
	// region/quantum Cancel hooks observe it cooperatively.
	ctx    context.Context
	cancel context.CancelFunc
	// waiters counts the /wait clients currently attached; when the last
	// one disconnects before the job finishes, nobody is left to consume
	// the result and the job is aborted.
	waiters int
	// journaled marks an incarnation whose accepted record is in the
	// journal (never set without a journal). pinned marks one acknowledged
	// from the store instead (DESIGN.md §14): the store indexed its
	// artifact at acceptance, that artifact is its durability point, and
	// the job holds a store pin on it (no LRU eviction) until it finishes.
	// If the artifact leaves the index anyway — a store-level delete, or a
	// missing or corrupt blob — run journals the job late, before it
	// executes.
	journaled bool
	pinned    bool
}

// arm (re)initializes the job's execution state: fresh done channel,
// fresh cancellation scope, back to the queue. Used at creation and when
// a failed or cancelled job is resubmitted.
func (j *job) arm() {
	j.state = StateQueued
	j.cached, j.fromStore = false, false
	j.err = ""
	j.val = nil
	j.started, j.finished = time.Time{}, time.Time{}
	j.elapsed = 0
	j.journaled = false
	j.done = make(chan struct{})
	j.ctx, j.cancel = context.WithCancel(context.Background())
}

// Options tune the service's production behaviour. The zero value means
// defaults (see withDefaults); explicit negatives disable a bound.
type Options struct {
	// MaxQueue bounds jobs in StateQueued: a submission that would exceed
	// it is refused with 429 and a Retry-After hint. 0: default 256;
	// negative: unbounded.
	MaxQueue int
	// RetryAfter is the hint sent with 429 responses. 0: default 1s.
	RetryAfter time.Duration
	// JobTTL is how long terminal jobs stay in the ledger; pruning is
	// opportunistic (on submit/status/metrics). 0: default 15m; negative:
	// keep forever.
	JobTTL time.Duration
	// MaxJobs caps the whole ledger. When exceeded, the oldest-finished
	// terminal jobs are evicted early (before their TTL); if the ledger is
	// all queued/running work, submissions are refused with 429. 0:
	// default 16384; negative: unbounded.
	MaxJobs int
	// MaxBody bounds one submission request's body; larger bodies are
	// refused with 413. 0: default 16 MiB.
	MaxBody int64
	// Journal is the durable job WAL (DESIGN.md §14). An accepted
	// submission is durable at its accepted record, fsynced before the
	// client sees 202, or, when the store indexes its artifact at
	// acceptance, at that artifact, with no record at all.
	// Server.Recover re-arms whatever the journal holds after a crash.
	// nil: no crash durability (the default for embedded/test servers).
	Journal *Journal
}

func (o Options) withDefaults() Options {
	if o.MaxQueue == 0 {
		o.MaxQueue = 256
	}
	if o.RetryAfter == 0 {
		o.RetryAfter = time.Second
	}
	if o.JobTTL == 0 {
		o.JobTTL = 15 * time.Minute
	}
	if o.MaxJobs == 0 {
		o.MaxJobs = 16384
	}
	if o.MaxBody == 0 {
		o.MaxBody = 16 << 20
	}
	return o
}

// Server is the lab service. Construct with NewServer (defaults) or
// NewServerOpts; it owns the engine's OnProgress hook (events fan out to
// /v1/events subscribers and drive per-job cache attribution).
type Server struct {
	eng   *runner.Engine
	store *artifact.Store
	opts  Options
	// sem bounds concurrently executing submissions to the engine's
	// worker budget: RunSpec executes on the caller's goroutine, so
	// without this gate N clients would mean N concurrent experiments
	// regardless of -workers. Jobs stay "queued" while waiting.
	sem chan struct{}
	// jrnl is the durable job WAL; nil when crash durability is off.
	jrnl *Journal

	mets serviceMetrics

	mu        sync.Mutex
	jobs      map[string]*job
	queued    int // jobs in StateQueued (admission-control gauge)
	lastPrune time.Time
	subs      map[chan runner.Progress]bool
}

// NewServer wires a lab service with default Options over an engine (and
// its optional store, which may be nil — artifacts are then served from
// memory only).
func NewServer(eng *runner.Engine, store *artifact.Store) *Server {
	return NewServerOpts(eng, store, Options{})
}

// NewServerOpts is NewServer with explicit production options.
func NewServerOpts(eng *runner.Engine, store *artifact.Store, opts Options) *Server {
	s := &Server{eng: eng, store: store, opts: opts.withDefaults(),
		sem:  make(chan struct{}, runner.PoolSize(eng.Workers)),
		jobs: make(map[string]*job), subs: make(map[chan runner.Progress]bool)}
	s.jrnl = s.opts.Journal
	eng.OnProgress = s.onProgress
	return s
}

// Recover re-arms jobs the journal replayed as accepted-but-unfinished
// (call once, after construction, before serving traffic). Each pending
// submission is decoded and enqueued exactly as a fresh POST would be —
// at-least-once semantics: a job that actually finished just before the
// crash re-executes, but the engine's content-keyed caches and the
// artifact store make that re-execution a cheap lookup. Admission control
// is deliberately skipped: these jobs were already accepted and journaled,
// and refusing them now would break the durability contract. Returns the
// number of jobs re-armed; undecodable bodies (journal from an older,
// incompatible build) are skipped, not fatal.
func (s *Server) Recover(pending []PendingJob) int {
	n := 0
	for _, p := range pending {
		sp, err := spec.Decode(p.Body)
		if err != nil {
			continue
		}
		s.mu.Lock()
		if _, ok := s.jobs[sp.Key()]; ok {
			s.mu.Unlock()
			continue // a client resubmitted it before recovery got here
		}
		j := &job{spec: sp}
		j.arm()
		j.journaled = s.jrnl != nil // its accepted record is what replay found
		s.jobs[sp.Key()] = j
		s.queued++
		s.mu.Unlock()
		s.mets.recovered.Add(1)
		go s.run(j)
		n++
	}
	return n
}

// onProgress attributes completion events to jobs and fans them out to
// event-stream subscribers. Calls are serialized by the engine.
func (s *Server) onProgress(p runner.Progress) {
	s.mu.Lock()
	if j, ok := s.jobs[p.Key]; ok && j.state == StateRunning {
		j.cached = p.Cached
		j.fromStore = p.FromStore
	}
	for ch := range s.subs {
		select {
		case ch <- p:
		default: // slow subscriber: drop, never block the engine
		}
	}
	s.mu.Unlock()
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/specs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{key}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{key}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{key}/wait", s.handleWait)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /v1/artifacts/{key}", s.handleArtifact)
	mux.HandleFunc("GET /v1/kinds", s.handleKinds)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (s *Server) status(j *job) JobStatus {
	bench, method, extra := j.spec.Identity()
	st := JobStatus{Key: j.spec.Key(), Kind: j.spec.Kind(),
		Bench: bench, Method: method, Extra: extra,
		State: j.state, Cached: j.cached, FromStore: j.fromStore, Error: j.err}
	switch {
	case j.state == StateRunning:
		st.ElapsedMS = time.Since(j.started).Milliseconds()
	case terminal(j.state):
		st.ElapsedMS = j.elapsed.Milliseconds()
	}
	return st
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// pruneLocked bounds the job ledger: terminal jobs past their TTL are
// dropped, and when the ledger exceeds MaxJobs the oldest-finished
// terminal jobs are evicted early. Queued and running jobs are never
// pruned. The TTL sweep is O(jobs), so it is throttled to at most once
// per TTL/4; the overflow eviction runs whenever needed.
func (s *Server) pruneLocked(now time.Time) {
	ttl := s.opts.JobTTL
	if ttl > 0 && now.Sub(s.lastPrune) >= ttl/4 {
		s.lastPrune = now
		for k, j := range s.jobs {
			if terminal(j.state) && !j.finished.IsZero() && now.Sub(j.finished) > ttl {
				delete(s.jobs, k)
			}
		}
	}
	if max := s.opts.MaxJobs; max > 0 && len(s.jobs) > max {
		s.evictTerminalLocked(len(s.jobs) - max)
	}
}

// evictTerminalLocked drops up to n terminal jobs, oldest-finished first.
// Queued and running jobs are never evicted; if fewer than n terminal
// jobs exist the ledger stays over bound (admission control then refuses
// new work).
func (s *Server) evictTerminalLocked(n int) {
	for ; n > 0; n-- {
		victim := ""
		var oldest time.Time
		for k, j := range s.jobs {
			if !terminal(j.state) {
				continue
			}
			if victim == "" || j.finished.Before(oldest) {
				victim, oldest = k, j.finished
			}
		}
		if victim == "" {
			return
		}
		delete(s.jobs, victim)
	}
}

// handleSubmit accepts a spec, deduplicates it by key, and starts it if
// new. A repeated POST of a finished spec reports state "done" with
// cached=true — the acceptance check for "labd serves the same spec from
// cache on a repeated request". A failed or cancelled job re-arms: the
// resubmit queues a fresh execution instead of serving the stale error.
// Admission control: when the queue (or the ledger) is full the
// submission is refused with 429 and a Retry-After hint. A new or
// re-armed job whose artifact the store already indexes is acknowledged
// without a journal record (see acceptLocked).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.mets.submitLat.Observe(time.Since(start).Seconds()) }()

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "spec body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	sp, err := spec.Decode(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mets.submits.Add(1)
	key := sp.Key()

	s.mu.Lock()
	s.pruneLocked(start)
	j, known := s.jobs[key]
	if known && j.state != StateFailed && j.state != StateCancelled {
		st := s.status(j)
		if j.state == StateDone {
			st.Cached = true
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, st)
		return
	}
	// A new job, or a failed or cancelled one re-armed: the recorded
	// failure may be transient (and the engine never caches errors), so a
	// resubmit retries instead of serving the stale error until restart.
	// A re-armed job is already a ledger entry, so only the queue bound
	// applies to it.
	if !known {
		j = &job{spec: sp}
	}
	if !s.admitLocked(w, !known) || !s.acceptLocked(w, j, body) {
		s.mu.Unlock()
		return
	}
	s.jobs[key] = j
	st := s.status(j)
	s.mu.Unlock()

	go s.run(j)
	writeJSON(w, http.StatusAccepted, st)
}

// admitLocked applies admission control for one queue entry; on refusal
// it writes the 429 itself and returns false. newJob distinguishes a
// fresh submission (needs a ledger slot too) from a re-armed one (already
// a ledger entry, so only the queue bound applies — and the ledger check
// must not evict the very job being re-armed).
func (s *Server) admitLocked(w http.ResponseWriter, newJob bool) bool {
	retry := func(format string, args ...any) bool {
		s.mets.rejected.Add(1)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.opts.RetryAfter.Seconds())))
		writeError(w, http.StatusTooManyRequests, format, args...)
		return false
	}
	if max := s.opts.MaxQueue; max > 0 && s.queued >= max {
		return retry("queue full (%d queued); retry later", s.queued)
	}
	if max := s.opts.MaxJobs; newJob && max > 0 && len(s.jobs) >= max {
		// Make room by dropping finished history before refusing: only a
		// ledger full of live (queued/running) work is a real overload.
		s.evictTerminalLocked(len(s.jobs) - max + 1)
		if len(s.jobs) >= max {
			return retry("job ledger full (%d live jobs); retry later", len(s.jobs))
		}
	}
	return true
}

// acceptLocked makes an admitted submission durable before it is
// acknowledged, then arms j and queues it. The accepted record (with the
// verbatim body, which replay resubmits) is fsynced while s.mu is held,
// so its WAL position is ordered against the racing finish/resubmit
// records of the same key. If the journal cannot take the record the
// submission is refused with 500 — accepting un-journaled work would
// silently drop the crash-safety contract. When the store indexes the
// artifact at acceptance, the artifact is the durability point instead (a
// restart serves it without replaying anything): no record is written,
// and j pins the artifact so the byte budget cannot evict it while j is
// live. Without a journal nothing is written either way.
func (s *Server) acceptLocked(w http.ResponseWriter, j *job, raw []byte) bool {
	key := j.spec.Key()
	stored := s.jrnl != nil && s.store != nil && s.store.Pin(key)
	if s.jrnl != nil && !stored {
		if err := s.jrnl.Accepted(key, raw); err != nil {
			writeError(w, http.StatusInternalServerError, "journal submission: %v", err)
			return false
		}
	}
	j.arm()
	j.journaled, j.pinned = s.jrnl != nil && !stored, stored
	if stored {
		s.mets.stored.Add(1)
	}
	s.queued++
	return true
}

func (s *Server) run(j *job) {
	// Queued phase: wait for a worker slot, but leave immediately if the
	// job is cancelled first — cancellation must abort queued work without
	// consuming a slot.
	select {
	case s.sem <- struct{}{}:
	case <-j.ctx.Done():
		s.finish(j, nil, j.ctx.Err())
		return
	}
	defer func() { <-s.sem }()

	// A job acknowledged from the store whose artifact has since left the
	// index (its pin keeps eviction away, but not a store-level delete or
	// a missing or corrupt blob) must execute, so it becomes replayable
	// first: its accepted record and fsync land before the execution
	// starts.
	key := j.spec.Key()
	s.mu.Lock()
	if j.pinned && !j.journaled && !s.indexed(key) {
		// The re-encoded spec replays to the same content key.
		body, err := json.Marshal(j.spec)
		if err == nil {
			err = s.jrnl.Accepted(key, body)
		}
		if err != nil {
			s.mu.Unlock()
			s.finish(j, nil, fmt.Errorf("journal submission: %w", err))
			return
		}
		j.journaled = true
	}
	s.queued--
	j.state = StateRunning
	j.started = time.Now()
	if j.journaled {
		_ = s.jrnl.Started(key) // best-effort: loss re-runs, never loses, the job
	}
	s.mu.Unlock()

	val, err := s.eng.RunSpecCtx(j.ctx, j.spec)

	// Once the artifact is safely persisted, the in-memory copy is
	// redundant (handleArtifact prefers the store) — drop it so a
	// long-running daemon's job ledger doesn't pin every result forever.
	if err == nil && s.indexed(key) {
		val = nil
	}
	s.finish(j, val, err)
}

// indexed reports whether the local store's index holds key's artifact,
// without reading it.
func (s *Server) indexed(key string) bool {
	if s.store == nil {
		return false
	}
	_, ok := s.store.StatKey(key)
	return ok
}

// finish moves a job to its terminal state and wakes the waiters.
func (s *Server) finish(j *job, val any, err error) {
	s.mu.Lock()
	now := time.Now()
	if j.state == StateQueued {
		s.queued--
	} else {
		j.elapsed = now.Sub(j.started)
	}
	j.finished = now
	j.val = val
	if j.pinned {
		s.store.Unpin(j.spec.Key())
		j.pinned = false
	}
	switch {
	case err == nil:
		j.state = StateDone
	case j.ctx.Err() != nil:
		// The job's own context was cancelled (DELETE or abandoned wait):
		// report "cancelled", not a failure — the distinction matters for
		// operators and for the resubmit path's semantics.
		j.state = StateCancelled
		j.err = err.Error()
	default:
		j.state = StateFailed
		j.err = err.Error()
	}
	// The terminal journal record must land while s.mu is held: a racing
	// resubmit journals its accepted record under the same lock, so
	// appending after unlock could order "failed" AFTER the re-arm's
	// "accepted" and make replay drop a live job.
	if j.journaled {
		switch j.state {
		case StateDone:
			_ = s.jrnl.Done(j.spec.Key())
		case StateCancelled:
			_ = s.jrnl.Cancelled(j.spec.Key())
		case StateFailed:
			_ = s.jrnl.Failed(j.spec.Key())
		}
	}
	// Capture this incarnation's channel and cancel under the lock: once
	// the state is terminal a racing resubmit may re-arm the job and
	// replace both, and cancelling the new incarnation's context would
	// abort the re-run.
	done, cancel := j.done, j.cancel
	s.mu.Unlock()
	cancel() // release the context's resources; no-op if already cancelled
	close(done)
}

func (s *Server) lookup(r *http.Request) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("key")]
	return j, ok
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("key"))
		return
	}
	s.mu.Lock()
	st := s.status(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleCancel aborts a queued or running job: the job's context is
// cancelled, the runner and the engines' region/quantum hooks observe it
// cooperatively, and the job lands in state "cancelled" (re-runnable by
// resubmitting the spec). Cancelling a terminal job is a no-op that
// reports the current status — the operation is idempotent.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("key"))
		return
	}
	s.mu.Lock()
	st := s.status(j)
	cancel := j.cancel
	isTerminal := terminal(j.state)
	s.mu.Unlock()
	if isTerminal {
		writeJSON(w, http.StatusOK, st)
		return
	}
	s.mets.cancels.Add(1)
	cancel()
	// The transition to "cancelled" is asynchronous — the executor unwinds
	// at its next cooperative check — so answer 202 with the pre-cancel
	// status; clients poll or /wait for the terminal state.
	writeJSON(w, http.StatusAccepted, st)
}

// handleWait blocks until the job finishes. While a client waits it holds
// a waiter reference on the job; if the last waiter disconnects before
// the job finishes, nobody is left to consume the result and the job is
// aborted (equivalent to DELETE). Fire-and-forget submitters that only
// poll GET /v1/jobs/{key} never attach a waiter and are unaffected.
func (s *Server) handleWait(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("key"))
		return
	}
	start := time.Now()
	s.mu.Lock()
	waiting := !terminal(j.state)
	done := j.done
	if waiting {
		j.waiters++
	}
	s.mu.Unlock()

	if waiting {
		select {
		case <-done:
			s.mu.Lock()
			j.waiters--
			s.mu.Unlock()
		case <-r.Context().Done():
			s.mu.Lock()
			j.waiters--
			// j.done == done guards against a re-armed job: this waiter
			// belongs to the incarnation it attached to, and must not
			// cancel a fresh re-run it never waited on.
			abandoned := j.waiters == 0 && !terminal(j.state) && j.done == done
			cancel := j.cancel
			s.mu.Unlock()
			if abandoned {
				s.mets.cancels.Add(1)
				cancel()
			}
			return
		}
	}
	s.mets.waitLat.Observe(time.Since(start).Seconds())
	s.mu.Lock()
	st := s.status(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams engine completion events as NDJSON until the
// client disconnects (or, with ?key=..., until that job finishes). Every
// event carries the finished spec's key, kind and identity — for a
// composite spec the stream shows its nested experiments completing one
// by one, which is the service's per-job progress view.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, _ := w.(http.Flusher)
	ch := make(chan runner.Progress, 256)
	s.mu.Lock()
	s.subs[ch] = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.subs, ch)
		s.mu.Unlock()
	}()

	var done chan struct{}
	if key := r.URL.Query().Get("key"); key != "" {
		s.mu.Lock()
		if j, ok := s.jobs[key]; ok {
			done = j.done
		}
		s.mu.Unlock()
		if done == nil {
			writeError(w, http.StatusNotFound, "unknown job %q", key)
			return
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if fl != nil {
		fl.Flush()
	}
	enc := json.NewEncoder(w)
	for {
		select {
		case p := <-ch:
			if err := enc.Encode(progressEvent(p)); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		case <-done:
			// Drain anything already queued, then finish the stream.
			for {
				select {
				case p := <-ch:
					_ = enc.Encode(progressEvent(p))
				default:
					if fl != nil {
						fl.Flush()
					}
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

// Event is one serialized progress event.
type Event struct {
	Key       string  `json:"key"`
	Kind      string  `json:"kind"`
	Bench     string  `json:"bench"`
	Method    string  `json:"method"`
	Extra     string  `json:"extra,omitempty"`
	Cached    bool    `json:"cached"`
	FromStore bool    `json:"from_store"`
	ElapsedS  float64 `json:"elapsed_s"`
}

func progressEvent(p runner.Progress) Event {
	return Event{Key: p.Key, Kind: p.Kind, Bench: p.Bench, Method: p.Method,
		Extra: p.Extra, Cached: p.Cached, FromStore: p.FromStore,
		ElapsedS: p.Elapsed.Seconds()}
}

// handleArtifact serves the result payload for a key: from the persistent
// store when available (integrity-checked raw bytes), else re-encoded
// from the in-memory result of a finished job. With ?envelope=1 it serves
// the raw artifact envelope instead — the fleet's one peer route
// (artifact.PeerBlob), which needs the envelope's own integrity metadata
// to re-verify on receipt. Envelope serving is strictly local (store
// only, never the peer tier): two nodes must not ping-pong a miss
// between each other. No route writes into the store: it is filled only
// by this node's own executions and its verified peer fetches.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if r.URL.Query().Get("envelope") == "1" {
		s.serveEnvelope(w, key)
		return
	}
	if s.store != nil {
		if payload, kind, ok := s.store.Raw(key); ok {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Artifact-Kind", kind)
			w.Header().Set("X-Artifact-Source", "store")
			_, _ = w.Write(payload)
			return
		}
	}
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no artifact for %q", key)
		return
	}
	s.mu.Lock()
	done := j.state == StateDone
	val := j.val
	s.mu.Unlock()
	if !done || val == nil {
		// val == nil: the result was persisted and dropped from memory,
		// but the store no longer has it (evicted or corrupted).
		writeError(w, http.StatusNotFound, "no artifact for %q", key)
		return
	}
	var codec artifact.Codec
	for _, k := range spec.Kinds() {
		if k.Name == j.spec.Kind() {
			codec = k.Codec
		}
	}
	payload, err := codec.Encode(val)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode artifact: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Artifact-Kind", j.spec.Kind())
	w.Header().Set("X-Artifact-Source", "memory")
	_, _ = w.Write(payload)
}

// serveEnvelope writes the verified raw envelope for key.
func (s *Server) serveEnvelope(w http.ResponseWriter, key string) {
	if s.store == nil {
		writeError(w, http.StatusNotFound, "no artifact store")
		return
	}
	raw, kind, ok := s.store.Envelope(key)
	if !ok {
		writeError(w, http.StatusNotFound, "no artifact for %q", key)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Artifact-Kind", kind)
	w.Header().Set("X-Artifact-Source", "envelope")
	_, _ = w.Write(raw)
}

func (s *Server) handleKinds(w http.ResponseWriter, _ *http.Request) {
	type kindInfo struct {
		Name         string `json:"name"`
		About        string `json:"about"`
		CodecVersion int    `json:"codec_version"`
	}
	var out []kindInfo
	for _, k := range spec.Kinds() {
		out = append(out, kindInfo{Name: k.Name, About: k.About, CodecVersion: k.Codec.Version})
	}
	writeJSON(w, http.StatusOK, out)
}

// stateCountsLocked tallies the ledger by state.
func (s *Server) stateCountsLocked() map[string]int {
	counts := make(map[string]int, len(jobStates))
	for _, st := range jobStates {
		counts[st] = 0
	}
	for _, j := range s.jobs {
		counts[j.state]++
	}
	return counts
}

// FleetStats is a fleet node's "fleet" block on /v1/status: its peer
// list and the peer artifact tier's fetch counters.
type FleetStats struct {
	Peers     []string           `json:"peers"`
	PeerFetch artifact.PeerStats `json:"peer_fetch"`
}

// peers returns the store's peer tier; nil outside fleet mode.
func (s *Server) peers() *artifact.PeerBlob {
	if s.store == nil {
		return nil
	}
	return s.store.Peers()
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	hits, misses := s.eng.CacheStats()
	s.mu.Lock()
	s.pruneLocked(time.Now())
	jobs := len(s.jobs)
	queued := s.queued
	counts := s.stateCountsLocked()
	s.mu.Unlock()
	st := map[string]any{
		"jobs":          jobs,
		"jobs_by_state": counts,
		"queue_depth":   queued,
		"cache_hits":    hits,
		"cache_miss":    misses,
		"store_hits":    s.eng.StoreHits(),
		"executions":    s.eng.Executions(),
		"submits":       s.mets.submits.Load(),
		"rejected":      s.mets.rejected.Load(),
		"cancels":       s.mets.cancels.Load(),
	}
	if s.store != nil {
		st["store"] = s.store.Stats()
	}
	if s.jrnl != nil {
		js := s.jrnl.Stats()
		js.Recovered = s.mets.recovered.Load() // jobs actually re-armed, not just replayed
		js.Stored = s.mets.stored.Load()
		st["journal"] = js
	}
	if peers := s.peers(); peers != nil {
		ps := peers.Stats()
		st["fleet"] = FleetStats{Peers: ps.Peers, PeerFetch: ps}
	}
	writeJSON(w, http.StatusOK, st)
}

// handleMetrics is the hand-rolled Prometheus text exposition: engine
// cache counters, artifact-store counters, queue and per-state job
// gauges, admission-control counters, and submit/wait latency
// histograms. Scrapers poll it; nothing here blocks on experiment work.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	hits, misses := s.eng.CacheStats()
	storeHits := s.eng.StoreHits()
	s.mu.Lock()
	s.pruneLocked(time.Now())
	queued := s.queued
	counts := s.stateCountsLocked()
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	promCounter(w, "labd_engine_cache_hits_total", "in-memory result cache hits", hits)
	promCounter(w, "labd_engine_cache_misses_total", "jobs executed (cache misses)", misses)
	promCounter(w, "labd_engine_store_hits_total", "jobs served by the persistent artifact store", storeHits)
	promCounter(w, "labd_engine_executions_total", "spec executions started on this node (fleet dedup invariant sums these)", s.eng.Executions())
	if s.store != nil {
		st := s.store.Stats()
		promCounter(w, "labd_store_loads_total", "artifact store load attempts", st.Loads)
		promCounter(w, "labd_store_load_misses_total", "artifact store load misses", st.LoadMisses)
		promCounter(w, "labd_store_hits_total", "artifact store loads served from a valid artifact", st.Hits)
		promCounter(w, "labd_store_saves_total", "artifacts persisted", st.Saves)
		promCounter(w, "labd_store_evictions_total", "artifacts evicted by the LRU byte budget", st.Evictions)
		promCounter(w, "labd_store_corrupt_total", "artifact integrity failures", st.Corrupt)
		promCounter(w, "labd_store_peer_hits_total", "loads served by fetching from a fleet peer", st.PeerHits)
		promGauge(w, "labd_store_artifacts", "artifacts currently in the store", int64(st.Artifacts))
		promGauge(w, "labd_store_bytes", "bytes currently in the store", st.Bytes)
		promGauge(w, "labd_store_max_bytes", "store byte budget (0: unbounded)", st.MaxBytes)
	}
	if peers := s.peers(); peers != nil {
		ps := peers.Stats()
		promGauge(w, "labd_fleet_peers", "peer nodes in the static fleet", int64(len(ps.Peers)))
		promCounter(w, "labd_peer_fetch_hits_total", "artifact fetches served by a peer (integrity verified)", ps.Hits)
		promCounter(w, "labd_peer_fetch_misses_total", "artifact fetches no peer could serve", ps.Misses)
		promCounter(w, "labd_peer_fetch_errors_total", "peer fetch errors (transport, non-404 status, failed verification)", ps.Errors)
	}
	promGauge(w, "labd_queue_depth", "jobs waiting for a worker slot", int64(queued))
	fmt.Fprintf(w, "# HELP labd_jobs jobs in the ledger by state\n# TYPE labd_jobs gauge\n")
	for _, state := range jobStates {
		fmt.Fprintf(w, "labd_jobs{state=%q} %d\n", state, counts[state])
	}
	promCounter(w, "labd_submits_total", "specs accepted for decoding on POST /v1/specs", s.mets.submits.Load())
	promCounter(w, "labd_rejected_total", "submissions refused with 429 (queue or ledger full)", s.mets.rejected.Load())
	promCounter(w, "labd_cancels_total", "job cancellations (DELETE or abandoned wait)", s.mets.cancels.Load())
	if s.jrnl != nil {
		js := s.jrnl.Stats()
		promCounter(w, "labd_journal_records_total", "job journal records appended", js.Records)
		promCounter(w, "labd_journal_syncs_total", "job journal fsyncs (one per durable acceptance)", js.Syncs)
		promCounter(w, "labd_journal_recovered_total", "journaled jobs re-armed after restart", s.mets.recovered.Load())
		promCounter(w, "labd_submits_stored_total", "submissions acknowledged from the artifact store without a journal record", s.mets.stored.Load())
	}
	s.mets.submitLat.writeProm(w, "labd_submit_latency_seconds", "POST /v1/specs handler latency")
	s.mets.waitLat.writeProm(w, "labd_wait_latency_seconds", "successful /v1/jobs/{key}/wait latency")
}
