package lab_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/lab"
	"repro/internal/spec"
	"repro/internal/warm"
)

// shortSpec returns a fast sampling spec for service tests.
func shortSpec(t *testing.T) []byte {
	t.Helper()
	cfg := warm.DefaultConfig()
	cfg.Regions = 1
	cfg.PaperGap = 400_000
	cfg.Scale = 1
	cfg.VicinityEvery = 5_000
	s := spec.MustNew(spec.SamplingParams{Bench: spec.BenchRef{Name: "mcf"}, Method: spec.MethodDeLorean, Cfg: cfg})
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postSpec(t *testing.T, ts *httptest.Server, body []byte) lab.JobStatus {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/specs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/specs: %s", resp.Status)
	}
	var st lab.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitDone(t *testing.T, ts *httptest.Server, key string) lab.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + key)
		if err != nil {
			t.Fatal(err)
		}
		var st lab.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case lab.StateDone:
			return st
		case lab.StateFailed:
			t.Fatalf("job failed: %s", st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return lab.JobStatus{}
}

// TestServiceLifecycle is the labd smoke flow as a Go test: submit a spec,
// poll to completion, fetch the artifact, and assert a repeated POST is a
// cache hit — plus the persistent tier: a *new* server over the same store
// serves the spec without executing.
func TestServiceLifecycle(t *testing.T) {
	dir := t.TempDir()
	eng, store, err := lab.NewEngine(2, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(lab.NewServer(eng, store).Handler())
	defer ts.Close()
	body := shortSpec(t)

	st := postSpec(t, ts, body)
	if st.Key == "" || st.Kind != spec.KindSampling {
		t.Fatalf("bad submit status: %+v", st)
	}
	fin := waitDone(t, ts, st.Key)
	if fin.Cached {
		t.Error("first run reported cached")
	}

	// Artifact fetch.
	resp, err := http.Get(ts.URL + "/v1/artifacts/" + st.Key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET artifact: %s", resp.Status)
	}
	if k := resp.Header.Get("X-Artifact-Kind"); k != spec.KindSampling {
		t.Errorf("artifact kind = %q", k)
	}
	var art struct {
		Method   string          `json:"method"`
		DeLorean json.RawMessage `json:"delorean"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&art); err != nil {
		t.Fatal(err)
	}
	if art.Method != spec.MethodDeLorean || len(art.DeLorean) == 0 {
		t.Errorf("unexpected artifact: %+v", art)
	}

	// Repeated POST: cache hit, no new execution.
	_, missesBefore := eng.CacheStats()
	again := postSpec(t, ts, body)
	if !again.Cached || again.State != lab.StateDone {
		t.Errorf("repeat POST not served from cache: %+v", again)
	}
	if _, misses := eng.CacheStats(); misses != missesBefore {
		t.Errorf("repeat POST executed %d new jobs", misses-missesBefore)
	}

	// Persistent tier: a fresh engine + server over the same store
	// directory serves the same spec without executing anything.
	eng2, store2, err := lab.NewEngine(2, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(lab.NewServer(eng2, store2).Handler())
	defer ts2.Close()
	st2 := postSpec(t, ts2, body)
	fin2 := waitDone(t, ts2, st2.Key)
	if !fin2.Cached || !fin2.FromStore {
		t.Errorf("restarted service did not serve from store: %+v", fin2)
	}
	if _, misses := eng2.CacheStats(); misses != 0 {
		t.Errorf("restarted service executed %d jobs, want 0", misses)
	}
}

// TestStatusSurfacesStoreCounters pins the /v1/status wire contract for
// the artifact-store counters: hit/miss/save/eviction/integrity-failure
// counts must appear under "store" with their documented field names, and
// must move as the store works (a save after an execution, a hit after a
// store-served re-run).
func TestStatusSurfacesStoreCounters(t *testing.T) {
	dir := t.TempDir()
	body := shortSpec(t)

	getStatus := func(ts *httptest.Server) map[string]json.RawMessage {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			Store map[string]json.RawMessage `json:"store"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if st.Store == nil {
			t.Fatal("/v1/status has no store section")
		}
		return st.Store
	}
	asUint := func(store map[string]json.RawMessage, field string) uint64 {
		t.Helper()
		raw, ok := store[field]
		if !ok {
			t.Fatalf("store status missing %q: %v", field, store)
		}
		var v uint64
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("store.%s: %v", field, err)
		}
		return v
	}

	eng, store, err := lab.NewEngine(2, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(lab.NewServer(eng, store).Handler())
	defer ts.Close()
	waitDone(t, ts, postSpec(t, ts, body).Key)

	st := getStatus(ts)
	for _, field := range []string{"loads", "load_misses", "hits", "saves", "evictions", "corrupt", "artifacts", "bytes", "max_bytes"} {
		asUint(st, field)
	}
	if saves := asUint(st, "saves"); saves == 0 {
		t.Error("executed job not reflected in store saves")
	}
	if corrupt := asUint(st, "corrupt"); corrupt != 0 {
		t.Errorf("clean store reports %d integrity failures", corrupt)
	}

	// A fresh service over the same store serves the spec from disk: the
	// hit counter must move.
	eng2, store2, err := lab.NewEngine(2, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(lab.NewServer(eng2, store2).Handler())
	defer ts2.Close()
	waitDone(t, ts2, postSpec(t, ts2, body).Key)
	if hits := asUint(getStatus(ts2), "hits"); hits == 0 {
		t.Error("store-served re-run not reflected in store hits")
	}
}

// TestServiceRejectsBadSpecs: the strict decode gate is wired in.
func TestServiceRejectsBadSpecs(t *testing.T) {
	eng, _, _ := lab.NewEngine(1, "", 0)
	ts := httptest.NewServer(lab.NewServer(eng, nil).Handler())
	defer ts.Close()
	for _, body := range []string{
		`{"kind":"nope","params":{}}`,
		`{"kind":"sampling","params":{"bench":{"name":"mcf"},"method":"smarts","cfg":{"Bogus":1}}}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/specs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %s, want 400", body, resp.Status)
		}
	}
}

// TestServiceEvents: the NDJSON event stream reports the job's completion.
func TestServiceEvents(t *testing.T) {
	eng, _, _ := lab.NewEngine(2, "", 0)
	ts := httptest.NewServer(lab.NewServer(eng, nil).Handler())
	defer ts.Close()

	st := postSpec(t, ts, shortSpec(t))
	resp, err := http.Get(ts.URL + "/v1/events?key=" + st.Key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	found := false
	for sc.Scan() {
		var ev lab.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if ev.Key == st.Key {
			found = true
		}
	}
	if !found {
		t.Error("event stream never reported the submitted job")
	}
}

// call sends one request and returns the status code and body.
func call(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestNoRouteWritesTheStore: the store is filled only by the node's own
// executions and its verified peer fetches. A forged envelope (altered
// Cycles, recomputed hash) passes the integrity check, so an HTTP route
// that wrote envelopes into the store would let any client plant results;
// the /v1/blobs routes that did are refused, and a resubmit is still
// served from the store with the honest bytes.
func TestNoRouteWritesTheStore(t *testing.T) {
	dir := t.TempDir()
	eng, store, err := lab.NewEngine(2, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(lab.NewServer(eng, store).Handler())
	defer ts.Close()
	body := shortSpec(t)
	key := postSpec(t, ts, body).Key
	waitDone(t, ts, key)
	_, honest := call(t, http.MethodGet, ts.URL+"/v1/artifacts/"+key, nil)
	code, env := call(t, http.MethodGet, ts.URL+"/v1/artifacts/"+key+"?envelope=1", nil)
	if code != http.StatusOK {
		t.Fatalf("GET envelope: status %d", code)
	}

	var e struct {
		Schema       string          `json:"schema"`
		Kind         string          `json:"kind"`
		Key          string          `json:"key"`
		CodecVersion int             `json:"codec_version"`
		SHA256       string          `json:"sha256"`
		Payload      json.RawMessage `json:"payload"`
	}
	if err := json.Unmarshal(env, &e); err != nil {
		t.Fatal(err)
	}
	loc := regexp.MustCompile(`"Cycles":[0-9]`).FindIndex(e.Payload)
	if loc == nil {
		t.Fatal("no Cycles field in the sampling artifact")
	}
	at := loc[1] - 1 // prefix a digit: the count changes, the JSON stays valid
	e.Payload = append(append(append(json.RawMessage{}, e.Payload[:at]...), '1'), e.Payload[at:]...)
	sum := sha256.Sum256(e.Payload)
	e.SHA256 = hex.EncodeToString(sum[:])
	forged, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	// The forgery passes the integrity gate (schema, key, payload hash):
	// a scratch store serves it as an envelope.
	scratch, err := artifact.NewDiskBlob(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	check, err := artifact.OpenBlob(scratch, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !scratch.Put(key, forged) {
		t.Fatal("scratch put failed")
	}
	if _, _, ok := check.Envelope(key); !ok {
		t.Fatal("the forgery fails the integrity check; it must pass it to test the routes")
	}

	for _, req := range []struct {
		method, path string
		body         []byte
	}{
		{http.MethodPut, "/v1/blobs/" + key, forged},
		{http.MethodDelete, "/v1/blobs/" + key, nil},
		{http.MethodGet, "/v1/blobs", nil},
	} {
		if code, _ := call(t, req.method, ts.URL+req.path, req.body); code != http.StatusNotFound && code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 404 or 405", req.method, req.path, code)
		}
	}
	if info, ok := store.StatKey(key); !ok || info.Size != int64(len(env)) {
		t.Fatalf("store after the requests: %+v indexed=%v, want the honest %d-byte envelope", info, ok, len(env))
	}

	// A restarted node has no ledger entry, so the resubmit must be
	// served by the stored artifact: the honest one.
	eng2, store2, err := lab.NewEngine(2, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(lab.NewServer(eng2, store2).Handler())
	defer ts2.Close()
	postSpec(t, ts2, body)
	if st := waitDone(t, ts2, key); !st.FromStore {
		t.Errorf("resubmit after restart: %+v, want from_store", st)
	}
	if _, got := call(t, http.MethodGet, ts2.URL+"/v1/artifacts/"+key, nil); !bytes.Equal(got, honest) {
		t.Error("resubmit served bytes other than the honest artifact")
	}
}
