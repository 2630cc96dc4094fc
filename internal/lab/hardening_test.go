package lab_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/lab"
	"repro/internal/runner"
	"repro/internal/spec"
)

// The service-hardening tests need jobs that fail, block and observe
// cancellation on demand — real experiment kinds validate at decode
// exactly so they cannot. "labtest" is a registered test double whose
// behaviour is looked up by ID at run time; a spec with an unregistered
// ID just returns "ok".
type testParams struct {
	ID string `json:"id"`
}

func (p testParams) Kind() string                       { return "labtest" }
func (p testParams) Identity() (string, string, string) { return "t", "labtest", p.ID }

var testBehaviors sync.Map // ID -> func(runner.Sub) (any, error)

func init() {
	spec.Register(spec.KindInfo{
		Name:  "labtest",
		About: "controllable test double for service hardening tests",
		New:   func() any { return new(testParams) },
		Run: func(p spec.Params, sub runner.Sub) (any, error) {
			if fn, ok := testBehaviors.Load(p.(testParams).ID); ok {
				return fn.(func(runner.Sub) (any, error))(sub)
			}
			return "ok", nil
		},
		Codec: artifact.Codec{
			Version: 1,
			Encode:  func(v any) ([]byte, error) { return json.Marshal(v) },
			Decode: func(b []byte) (any, error) {
				var s string
				err := json.Unmarshal(b, &s)
				return s, err
			},
		},
	})
}

func testBody(t *testing.T, id string) []byte {
	t.Helper()
	b, err := json.Marshal(spec.MustNew(testParams{ID: id}))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newHardenedServer(t *testing.T, workers int, opts lab.Options) (*httptest.Server, *runner.Engine) {
	t.Helper()
	eng, _, err := lab.NewEngine(workers, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(lab.NewServerOpts(eng, nil, opts).Handler())
	t.Cleanup(ts.Close)
	return ts, eng
}

// postRaw submits without asserting success, for admission-control tests.
func postRaw(t *testing.T, ts *httptest.Server, body []byte) (*http.Response, lab.JobStatus) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/specs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st lab.JobStatus
	_ = json.NewDecoder(resp.Body).Decode(&st)
	return resp, st
}

func getJob(t *testing.T, ts *httptest.Server, key string) (int, lab.JobStatus) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st lab.JobStatus
	_ = json.NewDecoder(resp.Body).Decode(&st)
	return resp.StatusCode, st
}

// waitState polls a job until it reaches one of the wanted states.
func waitState(t *testing.T, ts *httptest.Server, key string, want ...string) lab.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var last lab.JobStatus
	for time.Now().Before(deadline) {
		code, st := getJob(t, ts, key)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", key, code)
		}
		last = st
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %q, want one of %v", key, last.State, want)
	return lab.JobStatus{}
}

func cancelJob(t *testing.T, ts *httptest.Server, key string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+key, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// blockingBehavior registers a behaviour whose first execution signals
// started, then blocks until its context is cancelled; later executions
// return "second". It returns the started channel and an execution counter.
func blockingBehavior(id string) (started chan struct{}, execs *int32) {
	started = make(chan struct{}, 16)
	execs = new(int32)
	testBehaviors.Store(id, func(sub runner.Sub) (any, error) {
		if atomic.AddInt32(execs, 1) == 1 {
			started <- struct{}{}
			<-sub.Context().Done()
			return nil, sub.Context().Err()
		}
		return "second", nil
	})
	return started, execs
}

// TestResubmitRerunsFailedJob pins the re-arm path: a job that failed
// transiently must re-run when its spec is POSTed again — the old service
// replied with the stale failure status forever (the only fix was a
// daemon restart).
func TestResubmitRerunsFailedJob(t *testing.T) {
	var calls int32
	testBehaviors.Store("fail-once", func(runner.Sub) (any, error) {
		if atomic.AddInt32(&calls, 1) == 1 {
			return nil, errors.New("transient fault")
		}
		return "recovered", nil
	})
	ts, _ := newHardenedServer(t, 2, lab.Options{})
	body := testBody(t, "fail-once")

	resp, st := postRaw(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	fin := waitState(t, ts, st.Key, lab.StateFailed, lab.StateDone)
	if fin.State != lab.StateFailed || !strings.Contains(fin.Error, "transient fault") {
		t.Fatalf("first run: %+v, want failed with transient fault", fin)
	}

	resp, st2 := postRaw(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit of failed job: status %d, want 202 (re-armed)", resp.StatusCode)
	}
	if st2.State != lab.StateQueued || st2.Error != "" {
		t.Fatalf("resubmit status: %+v, want a fresh queued job", st2)
	}
	fin2 := waitState(t, ts, st.Key, lab.StateFailed, lab.StateDone)
	if fin2.State != lab.StateDone {
		t.Fatalf("re-run: %+v, want done", fin2)
	}
	if n := atomic.LoadInt32(&calls); n != 2 {
		t.Errorf("executor ran %d times, want 2", n)
	}

	// The re-run's artifact is served.
	aresp, err := http.Get(ts.URL + "/v1/artifacts/" + st.Key)
	if err != nil {
		t.Fatal(err)
	}
	defer aresp.Body.Close()
	payload, _ := io.ReadAll(aresp.Body)
	if aresp.StatusCode != http.StatusOK || !strings.Contains(string(payload), "recovered") {
		t.Errorf("artifact after re-run: %d %q", aresp.StatusCode, payload)
	}
}

// TestDeleteCancelsRunningJob: DELETE on a running job unwinds it via its
// context, the job reports "cancelled" (not "failed"), and the same spec
// re-runs to completion on the same daemon.
func TestDeleteCancelsRunningJob(t *testing.T) {
	started, execs := blockingBehavior("cancel-running")
	ts, _ := newHardenedServer(t, 2, lab.Options{})
	body := testBody(t, "cancel-running")

	_, st := postRaw(t, ts, body)
	<-started
	if resp := cancelJob(t, ts, st.Key); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE running job: status %d, want 202", resp.StatusCode)
	}
	fin := waitState(t, ts, st.Key, lab.StateCancelled, lab.StateFailed, lab.StateDone)
	if fin.State != lab.StateCancelled {
		t.Fatalf("after DELETE: %+v, want cancelled", fin)
	}

	// Idempotent on a terminal job.
	if resp := cancelJob(t, ts, st.Key); resp.StatusCode != http.StatusOK {
		t.Errorf("DELETE terminal job: status %d, want 200", resp.StatusCode)
	}

	// The cancelled key re-runs without a restart.
	resp, _ := postRaw(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit of cancelled job: status %d, want 202", resp.StatusCode)
	}
	fin2 := waitState(t, ts, st.Key, lab.StateCancelled, lab.StateFailed, lab.StateDone)
	if fin2.State != lab.StateDone {
		t.Fatalf("re-run after cancel: %+v, want done", fin2)
	}
	if n := atomic.LoadInt32(execs); n != 2 {
		t.Errorf("executor ran %d times, want 2 (cancelled, then re-run)", n)
	}
}

// TestDeleteCancelsQueuedJob: cancelling a job that is still waiting for
// a worker slot aborts it without ever executing it (and without
// consuming the slot).
func TestDeleteCancelsQueuedJob(t *testing.T) {
	blockStarted, _ := blockingBehavior("queue-blocker")
	var victimExecs int32
	testBehaviors.Store("queue-victim", func(runner.Sub) (any, error) {
		atomic.AddInt32(&victimExecs, 1)
		return "ran", nil
	})
	ts, _ := newHardenedServer(t, 1, lab.Options{})

	_, blocker := postRaw(t, ts, testBody(t, "queue-blocker"))
	<-blockStarted // the single worker slot is now held

	_, victim := postRaw(t, ts, testBody(t, "queue-victim"))
	waitState(t, ts, victim.Key, lab.StateQueued)
	cancelJob(t, ts, victim.Key)
	fin := waitState(t, ts, victim.Key, lab.StateCancelled, lab.StateFailed, lab.StateDone)
	if fin.State != lab.StateCancelled {
		t.Fatalf("cancelled queued job: %+v, want cancelled", fin)
	}
	if n := atomic.LoadInt32(&victimExecs); n != 0 {
		t.Errorf("cancelled queued job executed %d times, want 0", n)
	}

	// The worker slot is intact: unblock and finish the blocker.
	cancelJob(t, ts, blocker.Key)
	waitState(t, ts, blocker.Key, lab.StateCancelled)
	if _, st := postRaw(t, ts, testBody(t, "queue-victim")); st.Key != "" {
		if fin := waitState(t, ts, st.Key, lab.StateDone, lab.StateFailed); fin.State != lab.StateDone {
			t.Fatalf("slot leaked: later job ended %+v", fin)
		}
	}
}

// TestWaitDisconnectCancelsAbandonedJob: when the last /wait client
// disconnects before the job finishes, nobody is left to consume the
// result, so the service aborts the job (a client crash must not leave
// a minutes-long experiment running for no one).
func TestWaitDisconnectCancelsAbandonedJob(t *testing.T) {
	started, _ := blockingBehavior("abandoned")
	ts, _ := newHardenedServer(t, 2, lab.Options{})

	_, st := postRaw(t, ts, testBody(t, "abandoned"))
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+st.Key+"/wait", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		waitErr <- err
	}()
	// Give the handler a moment to attach the waiter, then disconnect.
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-waitErr; err == nil {
		t.Fatal("disconnected wait returned without error")
	}
	fin := waitState(t, ts, st.Key, lab.StateCancelled, lab.StateFailed, lab.StateDone)
	if fin.State != lab.StateCancelled {
		t.Fatalf("abandoned job: %+v, want cancelled", fin)
	}
}

// TestPolledJobIsNotAutoCancelled: fire-and-forget submitters that only
// poll GET /v1/jobs/{key} never attach a waiter, so their jobs run to
// completion with no client connected.
func TestPolledJobIsNotAutoCancelled(t *testing.T) {
	release := make(chan struct{})
	testBehaviors.Store("poll-only", func(runner.Sub) (any, error) {
		<-release
		return "ok", nil
	})
	ts, _ := newHardenedServer(t, 2, lab.Options{})
	_, st := postRaw(t, ts, testBody(t, "poll-only"))
	waitState(t, ts, st.Key, lab.StateRunning)
	close(release)
	if fin := waitState(t, ts, st.Key, lab.StateDone, lab.StateFailed, lab.StateCancelled); fin.State != lab.StateDone {
		t.Fatalf("unattended job: %+v, want done", fin)
	}
}

// TestSubmitBackpressure: a full queue answers 429 with a Retry-After
// hint instead of accepting unbounded work, and admits again once the
// queue drains.
func TestSubmitBackpressure(t *testing.T) {
	blockStarted, _ := blockingBehavior("bp-blocker")
	ts, _ := newHardenedServer(t, 1, lab.Options{MaxQueue: 1, RetryAfter: 2 * time.Second})

	_, blocker := postRaw(t, ts, testBody(t, "bp-blocker"))
	<-blockStarted
	waitState(t, ts, blocker.Key, lab.StateRunning) // queue is empty again

	resp, queued := postRaw(t, ts, testBody(t, "bp-q1"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first queued submit: status %d", resp.StatusCode)
	}
	resp, _ = postRaw(t, ts, testBody(t, "bp-q2"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}

	// Drain: cancel the blocker, let the queued job run, then the
	// rejected spec is admitted on retry.
	cancelJob(t, ts, blocker.Key)
	waitState(t, ts, queued.Key, lab.StateDone, lab.StateFailed, lab.StateCancelled)
	resp, st := postRaw(t, ts, testBody(t, "bp-q2"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("retry after drain: status %d, want 202", resp.StatusCode)
	}
	waitState(t, ts, st.Key, lab.StateDone)
}

// TestLedgerTTLPrune: terminal jobs disappear from the ledger after
// their TTL, so a long-running daemon's memory stays bounded.
func TestLedgerTTLPrune(t *testing.T) {
	ts, _ := newHardenedServer(t, 2, lab.Options{JobTTL: 50 * time.Millisecond})
	_, st := postRaw(t, ts, testBody(t, "ttl-job"))
	waitState(t, ts, st.Key, lab.StateDone)

	time.Sleep(120 * time.Millisecond)
	// Pruning is opportunistic; /v1/status triggers a sweep.
	if _, err := http.Get(ts.URL + "/v1/status"); err != nil {
		t.Fatal(err)
	}
	if code, _ := getJob(t, ts, st.Key); code != http.StatusNotFound {
		t.Errorf("TTL-expired job still served: status %d", code)
	}
}

// TestLedgerMaxJobsEviction: over the ledger cap, the oldest-finished
// terminal jobs are evicted to admit new work; live jobs are never
// evicted.
func TestLedgerMaxJobsEviction(t *testing.T) {
	ts, _ := newHardenedServer(t, 2, lab.Options{MaxJobs: 2, JobTTL: -1})
	var keys []string
	for i := 0; i < 3; i++ {
		_, st := postRaw(t, ts, testBody(t, fmt.Sprintf("cap-%d", i)))
		waitState(t, ts, st.Key, lab.StateDone)
		keys = append(keys, st.Key)
	}
	if code, _ := getJob(t, ts, keys[0]); code != http.StatusNotFound {
		t.Errorf("oldest terminal job survived a full ledger: status %d", code)
	}
	if code, _ := getJob(t, ts, keys[2]); code != http.StatusOK {
		t.Errorf("newest job evicted: status %d", code)
	}
}

// metricsInventory is every metric family /metrics must serve; the CI
// labload-smoke job greps for the same set against a live daemon.
var metricsInventory = []string{
	"labd_engine_cache_hits_total",
	"labd_engine_cache_misses_total",
	"labd_engine_store_hits_total",
	"labd_engine_executions_total",
	"labd_queue_depth",
	"labd_jobs{state=\"queued\"}",
	"labd_jobs{state=\"running\"}",
	"labd_jobs{state=\"done\"}",
	"labd_jobs{state=\"failed\"}",
	"labd_jobs{state=\"cancelled\"}",
	"labd_submits_total",
	"labd_rejected_total",
	"labd_cancels_total",
	"labd_submit_latency_seconds_bucket",
	"labd_submit_latency_seconds_sum",
	"labd_submit_latency_seconds_count",
	"labd_wait_latency_seconds_bucket",
	"labd_wait_latency_seconds_sum",
	"labd_wait_latency_seconds_count",
}

var storeMetricsInventory = []string{
	"labd_store_loads_total",
	"labd_store_load_misses_total",
	"labd_store_hits_total",
	"labd_store_saves_total",
	"labd_store_evictions_total",
	"labd_store_corrupt_total",
	"labd_store_artifacts",
	"labd_store_bytes",
	"labd_store_max_bytes",
	"labd_store_peer_hits_total",
}

// fleetMetricsInventory is the additional family set a fleet-mode node
// must serve; single-node servers rightly omit it (TestFleetMetrics).
var fleetMetricsInventory = []string{
	"labd_fleet_peers",
	"labd_peer_fetch_hits_total",
	"labd_peer_fetch_misses_total",
	"labd_peer_fetch_errors_total",
}

// TestMetricsEndpoint: /metrics serves the full counter inventory in
// Prometheus text format, and the counters move with the service.
func TestMetricsEndpoint(t *testing.T) {
	eng, store, err := lab.NewEngine(2, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(lab.NewServerOpts(eng, store, lab.Options{}).Handler())
	defer ts.Close()

	_, st := postRaw(t, ts, testBody(t, "metrics-job"))
	waitState(t, ts, st.Key, lab.StateDone)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	page := string(raw)
	for _, name := range append(append([]string{}, metricsInventory...), storeMetricsInventory...) {
		if !strings.Contains(page, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	for _, line := range []string{"labd_submits_total 1", "labd_jobs{state=\"done\"} 1", "labd_store_saves_total 1"} {
		if !strings.Contains(page, line) {
			t.Errorf("/metrics: want line %q in:\n%s", line, page)
		}
	}
	if !strings.Contains(page, "labd_submit_latency_seconds_count 1") {
		t.Error("/metrics: submit latency histogram did not record the submission")
	}
}

// TestNoGoroutineLeaks drives the failure paths — cancel while running,
// cancel while queued, abandoned wait, transient failure plus re-run —
// and asserts the service settles back to its goroutine baseline: no
// stuck run() goroutines, no orphaned waiters, no leaked semaphore slots.
func TestNoGoroutineLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()

	func() {
		started, _ := blockingBehavior("leak-run")
		var fails int32
		testBehaviors.Store("leak-flaky", func(runner.Sub) (any, error) {
			if atomic.AddInt32(&fails, 1) == 1 {
				return nil, errors.New("flaky")
			}
			return "ok", nil
		})
		ts, _ := newHardenedServer(t, 1, lab.Options{})
		defer ts.Close()

		// Cancel a running job.
		_, run := postRaw(t, ts, testBody(t, "leak-run"))
		<-started
		// Cancel a queued job behind it.
		_, queued := postRaw(t, ts, testBody(t, "leak-queued"))
		cancelJob(t, ts, queued.Key)
		waitState(t, ts, queued.Key, lab.StateCancelled)
		cancelJob(t, ts, run.Key)
		waitState(t, ts, run.Key, lab.StateCancelled)

		// Abandon a wait.
		started2, _ := blockingBehavior("leak-abandon")
		_, ab := postRaw(t, ts, testBody(t, "leak-abandon"))
		<-started2
		ctx, cancel := context.WithCancel(context.Background())
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+ab.Key+"/wait", nil)
		go func() {
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}()
		time.Sleep(50 * time.Millisecond)
		cancel()
		waitState(t, ts, ab.Key, lab.StateCancelled)

		// Fail, then re-run to done.
		_, fl := postRaw(t, ts, testBody(t, "leak-flaky"))
		waitState(t, ts, fl.Key, lab.StateFailed)
		postRaw(t, ts, testBody(t, "leak-flaky"))
		waitState(t, ts, fl.Key, lab.StateDone)
	}()

	// The httptest server is closed; idle client connections and run()
	// goroutines unwind asynchronously.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}
