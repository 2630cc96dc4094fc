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

// Options tune the service's production behaviour. The zero value means
// defaults (see withDefaults); explicit negatives disable a bound.
type Options struct {
	// MaxQueue bounds jobs in StateQueued: a submission that would exceed
	// it is refused with 429 and a Retry-After hint. 0: default 256;
	// negative: unbounded.
	MaxQueue int
	// JobTTL is how long terminal jobs stay in the ledger; pruning is
	// opportunistic (on submit/status/metrics). 0: default 15m; negative:
	// keep forever.
	JobTTL time.Duration
	// MaxJobs caps the whole ledger. When exceeded, the oldest-finished
	// terminal jobs are evicted early (before their TTL); if the ledger is
	// all queued/running work, submissions are refused with 429. 0:
	// default 16384; negative: unbounded.
	MaxJobs int
	// Journal is the durable job WAL (DESIGN.md §14; what it records is
	// the ledger's table). Server.Recover re-arms whatever it holds after
	// a crash. nil: no crash durability (embedded and test servers).
	Journal *Journal
}

func (o Options) withDefaults() Options {
	if o.MaxQueue == 0 {
		o.MaxQueue = 256
	}
	if o.JobTTL == 0 {
		o.JobTTL = 15 * time.Minute
	}
	if o.MaxJobs == 0 {
		o.MaxJobs = 16384
	}
	return o
}

// maxBody bounds one submission request's body; larger bodies are
// refused with 413. A 429 carries a Retry-After hint of one second.
const maxBody = 16 << 20

// Server is the lab service. Construct with NewServer (defaults) or
// NewServerOpts; it owns the engine's OnProgress hook (events fan out to
// /v1/events subscribers and drive per-job cache attribution).
type Server struct {
	eng   *runner.Engine
	store *artifact.Store
	// sem bounds concurrently executing submissions to the engine's
	// worker budget: RunSpec executes on the caller's goroutine, so
	// without this gate N clients would mean N concurrent experiments
	// regardless of -workers. Jobs stay "queued" while waiting.
	sem  chan struct{}
	jobs *ledger
	mets serviceMetrics

	mu   sync.Mutex // guards subs
	subs map[chan runner.Progress]bool
}

// NewServer wires a lab service with default Options over an engine (and
// its optional store, which may be nil — artifacts are then served from
// memory only).
func NewServer(eng *runner.Engine, store *artifact.Store) *Server {
	return NewServerOpts(eng, store, Options{})
}

// NewServerOpts is NewServer with explicit production options.
func NewServerOpts(eng *runner.Engine, store *artifact.Store, opts Options) *Server {
	s := &Server{eng: eng, store: store, jobs: newLedger(store, opts.withDefaults()),
		sem:  make(chan struct{}, runner.PoolSize(eng.Workers)),
		subs: make(map[chan runner.Progress]bool)}
	eng.OnProgress = s.onProgress
	return s
}

// Recover re-arms jobs the journal replayed as accepted-but-unfinished
// (call once, after construction, before serving traffic), through the
// ledger's accept path minus admission, pin and record: a previous
// process admitted and journaled them, and refusing them now would break
// the durability contract. At-least-once: a job that finished just before
// the crash re-executes, which the content-keyed caches and the store
// make a cheap lookup. Returns the number of jobs re-armed; undecodable
// bodies (a journal from an incompatible build) are skipped, not fatal.
func (s *Server) Recover(pending []PendingJob) int {
	n := 0
	for _, p := range pending {
		sp, err := spec.Decode(p.Body)
		if err != nil {
			continue
		}
		if j, _, armed, _ := s.jobs.submit(sp, p.Body, true); armed {
			go s.run(j)
			n++
		}
	}
	return n
}

// onProgress attributes completion events to jobs and fans them out to
// event-stream subscribers. Calls are serialized by the engine.
func (s *Server) onProgress(p runner.Progress) {
	s.jobs.progress(p)
	s.mu.Lock()
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

// handleSubmit decodes a spec and hands it to the ledger: 202 when it
// queues a new incarnation, 200 with the job's status when the key is
// already served (cached=true once done), 429 with a Retry-After hint
// when admission control refuses it, 500 when the journal cannot take it.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.mets.submitLat.Observe(time.Since(start).Seconds()) }()

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
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
	j, st, armed, err := s.jobs.submit(sp, body, false)
	switch {
	case errors.Is(err, errRetryLater):
		s.mets.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	case armed:
		go s.run(j)
		writeJSON(w, http.StatusAccepted, st)
	default:
		writeJSON(w, http.StatusOK, st)
	}
}

// run drives one incarnation of j through its worker slot.
func (s *Server) run(j *job) {
	// Queued phase: wait for a worker slot, but leave immediately if the
	// job is cancelled first — cancellation must abort queued work without
	// consuming a slot.
	select {
	case s.sem <- struct{}{}:
	case <-j.ctx.Done():
		s.jobs.finish(j, nil, j.ctx.Err())
		return
	}
	defer func() { <-s.sem }()
	if err := s.jobs.start(j); err != nil {
		s.jobs.finish(j, nil, err)
		return
	}
	val, err := s.eng.RunSpecCtx(j.ctx, j.spec)
	s.jobs.finish(j, val, err)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	_, v, ok := s.jobs.view(r.PathValue("key"), false)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("key"))
		return
	}
	writeJSON(w, http.StatusOK, v.st)
}

// handleCancel aborts a queued or running job: the job's context is
// cancelled, the runner and the engines' region/quantum hooks observe it
// cooperatively, and the job lands in state "cancelled" (re-runnable by
// resubmitting the spec). Cancelling a terminal job is a no-op that
// reports the current status — the operation is idempotent.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	_, v, ok := s.jobs.view(r.PathValue("key"), false)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("key"))
		return
	}
	if terminal(v.st.State) {
		writeJSON(w, http.StatusOK, v.st)
		return
	}
	s.mets.cancels.Add(1)
	v.cancel()
	// The transition to "cancelled" is asynchronous — the executor unwinds
	// at its next cooperative check — so answer 202 with the pre-cancel
	// status; clients poll or /wait for the terminal state.
	writeJSON(w, http.StatusAccepted, v.st)
}

// handleWait blocks until the job finishes. While a client waits it holds
// a waiter reference on the job; if the last waiter disconnects before
// the job finishes, nobody is left to consume the result and the job is
// aborted (equivalent to DELETE). Fire-and-forget submitters that only
// poll GET /v1/jobs/{key} never attach a waiter and are unaffected.
func (s *Server) handleWait(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	j, v, ok := s.jobs.view(r.PathValue("key"), true)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("key"))
		return
	}
	st := v.st
	if !terminal(st.State) {
		select {
		case <-v.done:
			st, _ = s.jobs.detach(j, v.done)
		case <-r.Context().Done():
			if _, abandoned := s.jobs.detach(j, v.done); abandoned {
				s.mets.cancels.Add(1)
				v.cancel()
			}
			return
		}
	}
	s.mets.waitLat.Observe(time.Since(start).Seconds())
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
		_, v, ok := s.jobs.view(key, false)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown job %q", key)
			return
		}
		done = v.done
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
	_, v, ok := s.jobs.view(key, false)
	if !ok || v.st.State != StateDone || v.val == nil {
		// val == nil: the result was persisted and dropped from memory,
		// but the store no longer has it (evicted or corrupted).
		writeError(w, http.StatusNotFound, "no artifact for %q", key)
		return
	}
	var codec artifact.Codec
	for _, k := range spec.Kinds() {
		if k.Name == v.st.Kind {
			codec = k.Codec
		}
	}
	payload, err := codec.Encode(v.val)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode artifact: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Artifact-Kind", v.st.Kind)
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
	jobs, counts := s.jobs.snapshot(time.Now())
	st := map[string]any{
		"jobs":          jobs,
		"jobs_by_state": counts,
		"queue_depth":   counts[StateQueued],
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
	if jl := s.jobs.jrnl; jl != nil {
		js := jl.Stats()
		js.Recovered = s.jobs.recovered.Load() // jobs actually re-armed, not just replayed
		js.Stored = s.jobs.stored.Load()
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
	_, counts := s.jobs.snapshot(time.Now())

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
	promGauge(w, "labd_queue_depth", "jobs waiting for a worker slot", int64(counts[StateQueued]))
	fmt.Fprintf(w, "# HELP labd_jobs jobs in the ledger by state\n# TYPE labd_jobs gauge\n")
	for _, state := range jobStates {
		fmt.Fprintf(w, "labd_jobs{state=%q} %d\n", state, counts[state])
	}
	promCounter(w, "labd_submits_total", "specs accepted for decoding on POST /v1/specs", s.mets.submits.Load())
	promCounter(w, "labd_rejected_total", "submissions refused with 429 (queue or ledger full)", s.mets.rejected.Load())
	promCounter(w, "labd_cancels_total", "job cancellations (DELETE or abandoned wait)", s.mets.cancels.Load())
	if jl := s.jobs.jrnl; jl != nil {
		js := jl.Stats()
		promCounter(w, "labd_journal_records_total", "job journal records appended", js.Records)
		promCounter(w, "labd_journal_syncs_total", "job journal fsyncs (one per durable acceptance)", js.Syncs)
		promCounter(w, "labd_journal_recovered_total", "journaled jobs re-armed after restart", s.jobs.recovered.Load())
		promCounter(w, "labd_submits_stored_total", "submissions acknowledged from the artifact store without a journal record", s.jobs.stored.Load())
	}
	s.mets.submitLat.writeProm(w, "labd_submit_latency_seconds", "POST /v1/specs handler latency")
	s.mets.waitLat.writeProm(w, "labd_wait_latency_seconds", "successful /v1/jobs/{key}/wait latency")
}
