package lab_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lab"
	"repro/internal/spec"
)

// startFleet boots an n-node in-process fleet with per-node temp stores.
func startFleet(t *testing.T, n int, opts lab.LocalFleetOptions) *lab.LocalFleet {
	t.Helper()
	dir := t.TempDir()
	opts.StoreDir = func(i int) string { return filepath.Join(dir, fmt.Sprintf("node%d", i)) }
	fl, err := lab.StartLocalFleet(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Close)
	return fl
}

func postSpecURL(t *testing.T, base string, body []byte) lab.JobStatus {
	t.Helper()
	resp, err := http.Post(base+"/v1/specs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit to %s: status %d", base, resp.StatusCode)
	}
	var st lab.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitDoneURL(t *testing.T, base, key string) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + key + "/wait")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st lab.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != lab.StateDone {
		t.Fatalf("job %s on %s ended %s: %s", key, base, st.State, st.Error)
	}
}

// labtestSpec encodes the labtest spec with the given ID.
func labtestSpec(t *testing.T, id string) (body []byte, key string) {
	t.Helper()
	sp := spec.MustNew(testParams{ID: id})
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	return b, sp.Key()
}

func fleetStatus(t *testing.T, base string) (executions uint64, stats lab.FleetStats) {
	t.Helper()
	resp, err := http.Get(base + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Executions uint64          `json:"executions"`
		Fleet      *lab.FleetStats `json:"fleet"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Fleet == nil {
		t.Fatalf("%s/v1/status has no fleet block", base)
	}
	return st.Executions, *st.Fleet
}

// TestFleetExactlyOnce: the same spec submitted to every node of a fleet
// in turn executes exactly once, on the first node; the later nodes pull
// the artifact over the peer tier.
func TestFleetExactlyOnce(t *testing.T) {
	fl := startFleet(t, 3, lab.LocalFleetOptions{Workers: 1})
	urls := fl.URLs()
	body, key := labtestSpec(t, "exactly-once")

	for _, u := range []string{urls[0], urls[2], urls[1]} {
		st := postSpecURL(t, u, body)
		if st.Key != key {
			t.Fatalf("ledger key %s, want %s", st.Key, key)
		}
		waitDoneURL(t, u, key)
	}

	if got := fl.Executions(); got != 1 {
		t.Fatalf("fleet executed the spec %d times, want exactly 1", got)
	}

	// The artifact reached the later nodes through the peer fetch tier and
	// is now in their local stores.
	var peerHits uint64
	for i, n := range fl.Nodes[1:] {
		if _, ok := n.Store.StatKey(key); !ok {
			t.Errorf("node %d missing the artifact locally after its submission", i+1)
		}
		peerHits += n.Store.Peers().Stats().Hits
	}
	if peerHits == 0 {
		t.Error("no peer fetch hits — artifact did not travel the peer tier")
	}
}

// TestFleetDeadPeerFailover: killing a node mid-matrix must degrade to
// local recomputation on the survivors — never to a failed job — even for
// work the dead node had already computed.
func TestFleetDeadPeerFailover(t *testing.T) {
	fl := startFleet(t, 3, lab.LocalFleetOptions{
		Workers:      1,
		FetchTimeout: 100 * time.Millisecond,
	})
	urls := fl.URLs()

	// Warm a job on node 2, then kill node 2.
	warmBody, warmKey := labtestSpec(t, "dead-warm")
	st := postSpecURL(t, urls[2], warmBody)
	waitDoneURL(t, urls[2], st.Key)
	fl.Kill(2)

	// The survivors cannot fetch the dead node's artifact: the job must
	// re-execute locally and still succeed.
	st = postSpecURL(t, urls[0], warmBody)
	waitDoneURL(t, urls[0], st.Key)
	if st.Key != warmKey {
		t.Fatalf("ledger key %s, want %s", st.Key, warmKey)
	}
	if got := fl.Nodes[0].Engine.Executions(); got != 1 {
		t.Errorf("survivor executed %d jobs, want 1 (local recompute)", got)
	}
	_, stats := fleetStatus(t, urls[0])
	if stats.PeerFetch.Errors == 0 && stats.PeerFetch.Misses == 0 {
		t.Errorf("peer tier recorded no failed fetch against the dead node: %+v", stats.PeerFetch)
	}

	// Fresh work also completes on a survivor.
	coldBody, coldKey := labtestSpec(t, "dead-cold")
	st = postSpecURL(t, urls[1], coldBody)
	waitDoneURL(t, urls[1], st.Key)
	if st.Key != coldKey {
		t.Fatalf("ledger key %s, want %s", st.Key, coldKey)
	}
}

// TestFleetZeroDuplicates: a batch of distinct specs scattered round-robin
// and then resubmitted everywhere executes each key exactly once
// fleet-wide — the invariant the fleet perf scenario and CI's fleet-smoke
// job gate on.
func TestFleetZeroDuplicates(t *testing.T) {
	fl := startFleet(t, 3, lab.LocalFleetOptions{Workers: 1})
	urls := fl.URLs()

	const jobs = 9
	bodies := make([][]byte, jobs)
	keys := make([]string, jobs)
	for i := range bodies {
		sp := spec.MustNew(testParams{ID: fmt.Sprintf("zero-dup-%d", i)})
		b, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i], keys[i] = b, sp.Key()
	}

	for i, b := range bodies {
		st := postSpecURL(t, urls[i%len(urls)], b)
		waitDoneURL(t, urls[i%len(urls)], st.Key)
	}
	if got := fl.Executions(); got != jobs {
		t.Fatalf("warm pass: %d executions for %d unique specs", got, jobs)
	}

	for _, b := range bodies {
		for _, u := range urls {
			st := postSpecURL(t, u, b)
			waitDoneURL(t, u, st.Key)
		}
	}
	if got := fl.Executions(); got != jobs {
		t.Fatalf("resubmit pass re-executed work: %d executions for %d unique specs", got, jobs)
	}
}

// TestFleetMetrics: a fleet node serves the fleet metric families and the
// status fleet block; the shared inventory lists stay the CI contract.
func TestFleetMetrics(t *testing.T) {
	fl := startFleet(t, 2, lab.LocalFleetOptions{Workers: 1})
	urls := fl.URLs()

	body, _ := labtestSpec(t, "fleet-metrics")
	st := postSpecURL(t, urls[0], body)
	waitDoneURL(t, urls[0], st.Key)

	resp, err := http.Get(urls[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page bytes.Buffer
	if _, err := page.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, name := range fleetMetricsInventory {
		if !bytes.Contains(page.Bytes(), []byte(name)) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	execs, stats := fleetStatus(t, urls[0])
	if len(stats.Peers) != 1 || stats.Peers[0] != urls[1] {
		t.Errorf("fleet status peers wrong: %+v", stats)
	}
	if execs != 1 {
		t.Errorf("node reports %d executions, want 1", execs)
	}
}

// TestRunLoadFleet: the load generator drives a multi-node fleet,
// reporting aggregate throughput and the fleet-wide counter movement.
// Concurrent submissions of one key to different nodes may each execute
// it, so the bound is per node: each node runs every unique spec at most
// once, and the fleet runs each at least once.
func TestRunLoadFleet(t *testing.T) {
	fl := startFleet(t, 3, lab.LocalFleetOptions{Workers: 1})

	const unique = 4
	bodies := make([][]byte, unique)
	for i := range bodies {
		sp := spec.MustNew(testParams{ID: fmt.Sprintf("load-fleet-%d", i)})
		b, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}

	rep, err := lab.RunLoad(lab.LoadConfig{
		BaseURLs: fl.URLs(), Bodies: bodies, Requests: 24, Clients: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures > 0 {
		t.Fatalf("%d failed requests: %+v", rep.Failures, rep)
	}
	if rep.Nodes != 3 {
		t.Errorf("Nodes = %d, want 3", rep.Nodes)
	}
	if rep.ThroughputRPS <= 0 {
		t.Errorf("ThroughputRPS = %v, want > 0", rep.ThroughputRPS)
	}
	if rep.Fleet == nil {
		t.Fatal("fleet totals missing from a fleet load report")
	}
	if got := fl.Executions(); rep.Fleet.Executions != got {
		t.Errorf("load report counts %d executions, engines %d", rep.Fleet.Executions, got)
	}
	if got := fl.Executions(); got < unique {
		t.Errorf("fleet executed %d specs for %d unique bodies", got, unique)
	}
	for i, n := range fl.Nodes {
		if got := n.Engine.Executions(); got > unique {
			t.Errorf("node %d executed %d specs for %d unique bodies", i, got, unique)
		}
	}
}

// TestFleetPeersExcludeSelf: every node may take the same -peers list,
// its own URL included. The node drops itself from its peer tier, so a
// local miss asks only the other nodes and never sends a request to
// itself.
func TestFleetPeersExcludeSelf(t *testing.T) {
	var selfHits, otherHits atomic.Int64
	self := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		selfHits.Add(1)
		http.NotFound(w, nil)
	}))
	defer self.Close()
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		otherHits.Add(1)
		http.NotFound(w, nil)
	}))
	defer other.Close()

	// -self given with a trailing slash, -peers without: the comparison is
	// on normalized URLs.
	eng, st, err := lab.NewFleetEngine(1, t.TempDir(), 0, self.URL+"/", []string{self.URL, other.URL}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Peers().Stats().Peers; len(got) != 1 || got[0] != other.URL {
		t.Fatalf("peer tier = %v, want only %s", got, other.URL)
	}

	if _, err := eng.RunSpec(spec.MustNew(testParams{ID: "self-miss"})); err != nil {
		t.Fatal(err)
	}
	if n := selfHits.Load(); n != 0 {
		t.Errorf("a local miss sent %d requests to the node itself", n)
	}
	if n := otherHits.Load(); n == 0 {
		t.Error("a local miss never asked the other peer")
	}
	if ps := st.Peers().Stats(); ps.Misses != 1 || ps.Errors != 0 {
		t.Errorf("peer stats after one miss: %+v", ps)
	}
}
