package lab

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/runner"
	"repro/internal/spec"
)

// These tests pin store-first submission (DESIGN.md §14): a spec whose
// artifact the store indexes at acceptance is acknowledged without a
// journal record, and journaled late if it must execute after all. They
// drive a "journalprobe" test kind whose execution runs a per-ID hook, so
// a test can look at the journal at the instant an execution starts.

type probeParams struct {
	ID string `json:"id"`
}

func (p probeParams) Kind() string                       { return "journalprobe" }
func (p probeParams) Identity() (string, string, string) { return "t", "journalprobe", p.ID }

var probeHooks sync.Map // ID -> func() (any, error)

func init() {
	spec.Register(spec.KindInfo{
		Name:  "journalprobe",
		About: "test double for the store-first journal tests",
		New:   func() any { return new(probeParams) },
		Run: func(p spec.Params, _ runner.Sub) (any, error) {
			if fn, ok := probeHooks.Load(p.(probeParams).ID); ok {
				return fn.(func() (any, error))()
			}
			return "ran", nil
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

// probeSpec returns the wire body and key of the probe spec for id.
func probeSpec(t *testing.T, id string) ([]byte, string) {
	t.Helper()
	sp := spec.MustNew(probeParams{ID: id})
	body, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	return body, sp.Key()
}

// storeFirstRig is a journaled server over a store, as labd runs it; the
// store's byte budget is maxBytes (<= 0: unbounded).
type storeFirstRig struct {
	srv   *Server
	ts    *httptest.Server
	jrnl  *Journal
	jpath string
	store *artifact.Store
	eng   *runner.Engine
}

func newStoreFirstRig(t *testing.T, maxBytes int64) *storeFirstRig {
	t.Helper()
	dir := t.TempDir()
	r := &storeFirstRig{jpath: filepath.Join(dir, "journal.wal")}
	var err error
	if r.jrnl, _, err = OpenJournal(r.jpath); err != nil {
		t.Fatal(err)
	}
	if r.eng, r.store, err = NewEngine(1, filepath.Join(dir, "store"), maxBytes); err != nil {
		t.Fatal(err)
	}
	r.srv = NewServerOpts(r.eng, r.store, Options{Journal: r.jrnl})
	r.ts = httptest.NewServer(r.srv.Handler())
	t.Cleanup(func() {
		r.ts.Close()
		r.jrnl.Close()
	})
	return r
}

// call sends one request and decodes the JSON reply into a JobStatus.
func (r *storeFirstRig) call(t *testing.T, method, path string, body []byte) (int, JobStatus) {
	t.Helper()
	req, err := http.NewRequest(method, r.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	_ = json.NewDecoder(resp.Body).Decode(&st)
	return resp.StatusCode, st
}

// submit POSTs body and requires a 202 for a queued job.
func (r *storeFirstRig) submit(t *testing.T, body []byte) {
	t.Helper()
	if code, st := r.call(t, http.MethodPost, "/v1/specs", body); code != http.StatusAccepted || st.State != StateQueued {
		t.Fatalf("POST: status %d state %q, want 202 queued", code, st.State)
	}
}

// wait blocks on /wait and returns the terminal status.
func (r *storeFirstRig) wait(t *testing.T, key string) JobStatus {
	t.Helper()
	code, st := r.call(t, http.MethodGet, "/v1/jobs/"+key+"/wait", nil)
	if code != http.StatusOK {
		t.Fatalf("wait %.12s: status %d", key, code)
	}
	return st
}

// holdSlots takes every worker slot, so accepted jobs stay queued until
// release is called.
func (r *storeFirstRig) holdSlots(t *testing.T) (release func()) {
	t.Helper()
	for i := 0; i < cap(r.srv.sem); i++ {
		r.srv.sem <- struct{}{}
	}
	var once sync.Once
	release = func() {
		once.Do(func() {
			for i := 0; i < cap(r.srv.sem); i++ {
				<-r.srv.sem
			}
		})
	}
	t.Cleanup(release)
	return release
}

// records reports the journal's appended records and fsyncs so far.
func (r *storeFirstRig) records() (records, syncs uint64) {
	st := r.jrnl.Stats()
	return st.Records, st.Syncs
}

// replayPending closes the journal and returns what a restart would
// re-arm.
func (r *storeFirstRig) replayPending(t *testing.T) []string {
	t.Helper()
	r.ts.Close() // no request may append while the WAL is replayed
	r.jrnl.Close()
	jl, pending, err := OpenJournal(r.jpath)
	if err != nil {
		t.Fatal(err)
	}
	r.jrnl = jl
	return pendingKeys(pending)
}

// TestJournalSkipsStoredSubmit: a journaled server answers a spec whose
// artifact the store already holds with 202 and a store hit, without
// appending or syncing anything; a fresh spec still costs one fsync.
func TestJournalSkipsStoredSubmit(t *testing.T) {
	r := newStoreFirstRig(t, 0)
	body, key := probeSpec(t, "stored")
	r.store.Save("journalprobe", key, "stored")

	// Concurrent duplicates: one acceptance, the rest join its job.
	codes := make(chan int, 4)
	var wg sync.WaitGroup
	for i := 0; i < cap(codes); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(r.ts.URL+"/v1/specs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)
	accepted := 0
	for code := range codes {
		switch code {
		case http.StatusAccepted:
			accepted++
		case http.StatusOK:
		default:
			t.Errorf("POST of a stored spec: status %d", code)
		}
	}
	if accepted != 1 {
		t.Errorf("%d of %d concurrent POSTs accepted a new job, want 1", accepted, cap(codes))
	}
	if st := r.wait(t, key); st.State != StateDone || !st.FromStore {
		t.Fatalf("stored spec: %+v, want done from the store", st)
	}
	if n := r.eng.Executions(); n != 0 {
		t.Errorf("stored spec executed %d times, want 0", n)
	}
	if rec, syncs := r.records(); rec != 0 || syncs != 0 {
		t.Errorf("stored spec left %d journal records and %d fsyncs, want none", rec, syncs)
	}
	resp, err := http.Get(r.ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Journal JournalStats `json:"journal"`
	}
	err = json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if err != nil || status.Journal.Stored != 1 {
		t.Errorf("status journal.stored = %d (%v), want 1", status.Journal.Stored, err)
	}
	mets := httptest.NewRecorder()
	r.srv.handleMetrics(mets, nil)
	if !strings.Contains(mets.Body.String(), "\nlabd_submits_stored_total 1\n") {
		t.Errorf("/metrics lacks labd_submits_stored_total 1:\n%s", mets.Body.String())
	}

	fresh, freshKey := probeSpec(t, "fresh")
	r.submit(t, fresh)
	if st := r.wait(t, freshKey); st.State != StateDone || st.Cached {
		t.Fatalf("fresh spec: %+v, want done by execution", st)
	}
	if _, syncs := r.records(); syncs != 1 {
		t.Errorf("fresh spec cost %d fsyncs, want exactly 1", syncs)
	}
	if p := r.replayPending(t); len(p) != 0 {
		t.Errorf("replay re-arms %v, want nothing", p)
	}
}

// TestJournalLateRecordForEvictedStoredJob: a job acknowledged from the
// store whose artifact is deleted before it reaches a worker slot must
// execute, and its accepted record, fsynced, must be in the journal
// before the execution starts.
func TestJournalLateRecordForEvictedStoredJob(t *testing.T) {
	r := newStoreFirstRig(t, 0)
	body, key := probeSpec(t, "evicted")
	r.store.Save("journalprobe", key, "stale")

	var atStart struct {
		sync.Mutex
		records, syncs uint64
		pending        []PendingJob
		err            error
	}
	probeHooks.Store("evicted", func() (any, error) {
		atStart.Lock()
		defer atStart.Unlock()
		atStart.records, atStart.syncs = r.records()
		atStart.pending, atStart.err = replayJournal(r.jpath)
		return "recomputed", nil
	})
	t.Cleanup(func() { probeHooks.Delete("evicted") })

	release := r.holdSlots(t)
	r.submit(t, body)
	if rec, _ := r.records(); rec != 0 {
		t.Fatalf("stored spec journaled %d records at acceptance, want 0", rec)
	}
	if !r.store.DeleteKey(key) {
		t.Fatal("artifact was not indexed")
	}
	release()

	if st := r.wait(t, key); st.State != StateDone || st.FromStore {
		t.Fatalf("evicted spec: %+v, want done by execution", st)
	}
	atStart.Lock()
	defer atStart.Unlock()
	if atStart.syncs != 1 || atStart.records != 2 {
		t.Errorf("at execution start the journal had %d records and %d fsyncs, want 2 (accepted, started) and 1",
			atStart.records, atStart.syncs)
	}
	if atStart.err != nil || len(atStart.pending) != 1 || atStart.pending[0].Key != key || !bytes.Equal(atStart.pending[0].Body, body) {
		t.Errorf("a crash at execution start would replay %+v (%v), want the submission verbatim", atStart.pending, atStart.err)
	}
	if rec, syncs := r.records(); rec != 3 || syncs != 1 {
		t.Errorf("journal has %d records and %d fsyncs, want 3 (accepted, started, done) and 1", rec, syncs)
	}
	if p := r.replayPending(t); len(p) != 0 {
		t.Errorf("replay re-arms %v after completion, want nothing", p)
	}
}

// TestJournalRearmFollowsStoreFirstRule: a failed or cancelled job that
// is resubmitted follows the same rule as a new one. A journaled failure
// re-armed over a stored artifact writes nothing (the earlier
// incarnation's flag is cleared), and a cancelled store-first job
// re-armed after its artifact is gone is journaled at acceptance.
func TestJournalRearmFollowsStoreFirstRule(t *testing.T) {
	r := newStoreFirstRig(t, 0)

	failBody, failKey := probeSpec(t, "rearm-failed")
	probeHooks.Store("rearm-failed", func() (any, error) { return nil, errors.New("transient fault") })
	t.Cleanup(func() { probeHooks.Delete("rearm-failed") })
	r.submit(t, failBody)
	if st := r.wait(t, failKey); st.State != StateFailed {
		t.Fatalf("first run: %+v, want failed", st)
	}
	if rec, syncs := r.records(); rec != 3 || syncs != 1 {
		t.Fatalf("failed fresh job: %d records and %d fsyncs, want 3 (accepted, started, failed) and 1", rec, syncs)
	}
	r.store.Save("journalprobe", failKey, "stored meanwhile")
	r.submit(t, failBody)
	if st := r.wait(t, failKey); st.State != StateDone || !st.FromStore {
		t.Fatalf("re-armed failed job: %+v, want done from the store", st)
	}
	if rec, syncs := r.records(); rec != 3 || syncs != 1 {
		t.Errorf("re-arm over a stored artifact moved the journal to %d records and %d fsyncs, want 3 and 1", rec, syncs)
	}

	cancelBody, cancelKey := probeSpec(t, "rearm-cancelled")
	r.store.Save("journalprobe", cancelKey, "stored")
	release := r.holdSlots(t)
	r.submit(t, cancelBody)
	if code, _ := r.call(t, http.MethodDelete, "/v1/jobs/"+cancelKey, nil); code != http.StatusAccepted {
		t.Fatalf("DELETE: status %d, want 202", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, st := r.call(t, http.MethodGet, "/v1/jobs/"+cancelKey, nil); st.State == StateCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queued job never reached cancelled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	release()
	if rec, syncs := r.records(); rec != 3 || syncs != 1 {
		t.Errorf("cancelled store-first job moved the journal to %d records and %d fsyncs, want 3 and 1", rec, syncs)
	}
	r.store.DeleteKey(cancelKey)
	r.submit(t, cancelBody)
	if _, syncs := r.records(); syncs != 2 {
		t.Errorf("re-arm without a stored artifact: %d fsyncs after the 202, want 2", syncs)
	}
	if st := r.wait(t, cancelKey); st.State != StateDone || st.FromStore {
		t.Fatalf("re-armed cancelled job: %+v, want done by execution", st)
	}
	if rec, syncs := r.records(); rec != 6 || syncs != 2 {
		t.Errorf("journal has %d records and %d fsyncs, want 6 and 2", rec, syncs)
	}
	if p := r.replayPending(t); len(p) != 0 {
		t.Errorf("replay re-arms %v, want nothing", p)
	}
}

// TestJournalStoredJobPinsItsArtifact: the artifact a queued job was
// acknowledged on is that job's only durability point, so a bounded
// store must not evict it while the job waits for a worker slot (a crash
// then still finds it), and must be free to once the job is done.
func TestJournalStoredJobPinsItsArtifact(t *testing.T) {
	_, probe, err := NewEngine(1, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, k0 := probeSpec(t, "size")
	probe.Save("journalprobe", k0, "v")
	info, ok := probe.StatKey(k0)
	if !ok {
		t.Fatal("probe artifact not indexed")
	}
	r := newStoreFirstRig(t, 3*info.Size+info.Size/2) // room for three
	body, key := probeSpec(t, "pinned")
	r.store.Save("journalprobe", key, "v")
	fill := func(from, to int) {
		for i := from; i < to; i++ {
			_, k := probeSpec(t, fmt.Sprintf("filler-%d", i))
			r.store.Save("journalprobe", k, "v")
		}
	}

	release := r.holdSlots(t)
	r.submit(t, body)
	fill(0, 4) // the job's artifact is the LRU one from the second save on
	if _, ok := r.store.StatKey(key); !ok {
		t.Fatal("the byte budget evicted the artifact of an acknowledged, unjournaled job")
	}
	if ev := r.store.Stats().Evictions; ev != 2 {
		t.Fatalf("%d evictions, want 2 (the budget must bind)", ev)
	}
	if rec, _ := r.records(); rec != 0 {
		t.Fatalf("stored spec journaled %d records, want 0", rec)
	}
	release()

	if st := r.wait(t, key); st.State != StateDone || !st.FromStore {
		t.Fatalf("pinned spec: %+v, want done from the store", st)
	}
	if n := r.eng.Executions(); n != 0 {
		t.Errorf("pinned spec executed %d times, want 0", n)
	}
	fill(4, 7)
	if _, ok := r.store.StatKey(key); ok {
		t.Error("the artifact outlived three newer saves after its job finished; want its pin released")
	}
}
