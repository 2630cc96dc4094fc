package lab_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lab"
	"repro/internal/spec"
	"repro/internal/warm"
	"repro/internal/workload"
)

// TestSubmitIsJournaledDurably: with a journal attached, a submission's
// full lifecycle lands in the WAL — and once the job is done, a restart
// replays nothing.
func TestSubmitIsJournaledDurably(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.wal")
	jl, pending, err := lab.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatal("fresh journal reported pending jobs")
	}
	eng, store, err := lab.NewEngine(1, filepath.Join(dir, "store"), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(lab.NewServerOpts(eng, store, lab.Options{Journal: jl}).Handler())
	defer ts.Close()

	body := shortSpec(t)
	st := postSpec(t, ts, body)
	waitDone(t, ts, st.Key)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mets, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, m := range []string{"labd_journal_records_total", "labd_journal_syncs_total", "labd_journal_recovered_total", "labd_submits_stored_total"} {
		if !strings.Contains(string(mets), m) {
			t.Errorf("/metrics missing %s", m)
		}
	}

	jl.Close()
	jl2, pending, err := lab.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	if len(pending) != 0 {
		t.Fatalf("finished job still pending after replay: %v", pending)
	}
}

// TestInvalidConfigRejectedBeforeJournal: a sampling spec with Scale 0
// (which would divide by zero in the executor) must be refused at the
// boundary with a 400 — before the journal records it — so it can never
// become a pending job that crashes every restart.
func TestInvalidConfigRejectedBeforeJournal(t *testing.T) {
	assertRejectedBeforeJournal(t, shortSpec(t), func(p map[string]any) { cfgOf(p)["Scale"] = 0 }, "Scale")
}

// TestInvalidCPURejectedBeforeJournal: a dse-sweep spec with a zero-entry
// ROB passes JSON decoding but would index an empty completion ring on a
// DSE fan-out goroutine, outside the job's panic containment. It too must
// be a 400 that leaves nothing in the journal.
func TestInvalidCPURejectedBeforeJournal(t *testing.T) {
	cfg := warm.DefaultConfig()
	cfg.Regions = 1
	cfg.PaperGap = 400_000
	cfg.Scale = 1
	cfg.VicinityEvery = 5_000
	body, err := json.Marshal(spec.MustNew(spec.DSESweepParams{
		Bench: spec.BenchRef{Name: "mcf"}, Sizes: []uint64{1 << 20, 4 << 20}, Cfg: cfg}))
	if err != nil {
		t.Fatal(err)
	}
	assertRejectedBeforeJournal(t, body, func(p map[string]any) { cfgOf(p)["CPU"].(map[string]any)["ROB"] = 0 }, "ROB")
}

// TestHugeLLCRejectedBeforeJournal: an LLC request above warm.MaxLLCBytes
// once scaled would size the cache's tag and age arrays into an
// out-of-memory kill, which the journal would re-arm on every restart.
// Every kind must refuse it at the boundary. So must the DSE and co-run
// kinds a size or app list longer than spec.MaxListLen: every entry costs
// an engine (a size) or a co-run core (an app) before any work starts.
func TestHugeLLCRejectedBeforeJournal(t *testing.T) {
	cfg := warm.DefaultConfig()
	cfg.Regions = 1
	cfg.PaperGap = 400_000
	cfg.Scale = 1
	cfg.VicinityEvery = 5_000
	mcf := spec.BenchRef{Name: "mcf"}
	mix := []spec.BenchRef{{Name: "omnetpp"}, {Name: "hmmer"}}
	hugeLLC := func(p map[string]any) { cfgOf(p)["LLCPaperBytes"] = uint64(4 << 30) }
	tooMany := func(key string, entry any) func(map[string]any) {
		return func(p map[string]any) {
			list := make([]any, spec.MaxListLen+1)
			for i := range list {
				list[i] = entry
			}
			p[key] = list
		}
	}
	cases := []struct {
		params spec.Params
		edit   func(map[string]any)
		field  string
	}{
		{spec.SamplingParams{Bench: mcf, Method: spec.MethodDeLorean, Cfg: cfg}, hugeLLC, "LLCPaperBytes"},
		{spec.DSESweepParams{Bench: mcf, Sizes: []uint64{1 << 20, 4 << 20}, Cfg: cfg},
			func(p map[string]any) { p["sizes"].([]any)[1] = uint64(1<<30 + 1) }, "sizes[1]"},
		{spec.CoRunProfileParams{Bench: mcf, Cfg: cfg}, hugeLLC, "LLCPaperBytes"},
		{spec.CoRunCalParams{Bench: mcf, Cfg: cfg}, hugeLLC, "LLCPaperBytes"},
		{spec.CoRunWarmParams{Mix: "omnetpp+hmmer", Apps: mix, Cfg: cfg}, hugeLLC, "LLCPaperBytes"},
		{spec.CoRunSimParams{Mix: "omnetpp+hmmer", Apps: mix, Cfg: cfg}, hugeLLC, "LLCPaperBytes"},
		{spec.DSESweepParams{Bench: mcf, Sizes: []uint64{1 << 20, 4 << 20}, Cfg: cfg}, tooMany("sizes", 1<<20), "sizes"},
		{spec.CoRunWarmParams{Mix: "omnetpp+hmmer", Apps: mix, Cfg: cfg}, tooMany("apps", mcf), "apps"},
		{spec.CoRunSimParams{Mix: "omnetpp+hmmer", Apps: mix, Cfg: cfg}, tooMany("apps", mcf), "apps"},
	}
	for _, tc := range cases {
		t.Run(tc.params.Kind(), func(t *testing.T) {
			body, err := json.Marshal(spec.MustNew(tc.params))
			if err != nil {
				t.Fatal(err)
			}
			assertRejectedBeforeJournal(t, body, tc.edit, tc.field)
		})
	}
}

// TestInvalidProfileRejectedBeforeJournal: an inline profile the
// generator cannot build or run reached the executor before
// workload.Profile.Validate ran at decode. An overlay of a later stream
// and an empty stream list panicked there; n Rand streams cost n² words
// per program, which a 16 MiB body could push to an out-of-memory kill
// that no panic containment catches. The journal would re-arm each on
// every restart, so each must be a 400 that leaves nothing in it.
func TestInvalidProfileRejectedBeforeJournal(t *testing.T) {
	overlay, empty, rands := workload.Mcf(), workload.Mcf(), workload.Mcf()
	overlay.Streams = append([]workload.StreamSpec(nil), overlay.Streams...)
	overlay.Streams[0].OverlayOf = 2
	empty.Streams = nil
	rands.Streams = make([]workload.StreamSpec, 65)
	for i := range rands.Streams {
		rands.Streams[i] = workload.StreamSpec{Kind: workload.Rand, Weight: 1, PaperBytes: 1 << 20}
	}
	for _, tc := range []struct {
		name, field string
		prof        *workload.Profile
	}{
		{"overlay-of-later-stream", "OverlayOf", overlay},
		{"no-streams", "Streams", empty},
		{"rand-streams-65", "Streams", rands},
	} {
		t.Run(tc.name, func(t *testing.T) {
			assertRejectedBeforeJournal(t, shortSpec(t), func(p map[string]any) {
				p["bench"] = spec.BenchRef{Name: "custom", Profile: tc.prof}
			}, tc.field)
		})
	}
}

// TestUnboundedRunRejectedBeforeJournal: a spec with no region, or with
// more regions × gap than warm.MaxRunInstr, would run nothing or hold a
// worker for days, and the journal would re-arm it on every restart. Each
// kind whose run walks Regions × Gap() instructions must refuse it at the
// boundary.
func TestUnboundedRunRejectedBeforeJournal(t *testing.T) {
	cfg := warm.DefaultConfig()
	cfg.Regions = 1
	cfg.PaperGap = 400_000
	cfg.Scale = 1
	cfg.VicinityEvery = 5_000
	mcf := spec.BenchRef{Name: "mcf"}
	regions := func(n int) func(map[string]any) {
		return func(p map[string]any) { cfgOf(p)["Regions"] = n }
	}
	overBound := int(warm.MaxRunInstr/cfg.Gap()) + 1
	for _, params := range []spec.Params{
		spec.SamplingParams{Bench: mcf, Method: spec.MethodSMARTS, Cfg: cfg},
		spec.DSESweepParams{Bench: mcf, Sizes: []uint64{1 << 20, 4 << 20}, Cfg: cfg},
	} {
		body, err := json.Marshal(spec.MustNew(params))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, overBound} {
			t.Run(fmt.Sprintf("%s/regions=%d", params.Kind(), n), func(t *testing.T) {
				assertRejectedBeforeJournal(t, body, regions(n), "Regions")
			})
		}
	}
}

// cfgOf returns a decoded spec's params' cfg object.
func cfgOf(params map[string]any) map[string]any { return params["cfg"].(map[string]any) }

// assertRejectedBeforeJournal POSTs the spec body with edit applied to its
// params to a journaled server and checks the rejection contract: a 400 that
// names field, no journal record, no execution, nothing re-armed on
// restart.
func assertRejectedBeforeJournal(t *testing.T, specJSON []byte, edit func(params map[string]any), field string) {
	t.Helper()
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.wal")
	jl, _, err := lab.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	eng, store, err := lab.NewEngine(1, filepath.Join(dir, "store"), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(lab.NewServerOpts(eng, store, lab.Options{Journal: jl}).Handler())
	defer ts.Close()

	var wire struct {
		Kind   string         `json:"kind"`
		Params map[string]any `json:"params"`
	}
	if err := json.Unmarshal(specJSON, &wire); err != nil {
		t.Fatal(err)
	}
	edit(wire.Params)
	body, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/specs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST with invalid %s: status %s (%s), want 400", field, resp.Status, msg)
	}
	if !strings.Contains(string(msg), field) {
		t.Errorf("400 body %q does not name the bad field", msg)
	}
	if n := jl.Stats().Records; n != 0 {
		t.Errorf("rejected spec left %d journal records", n)
	}
	if n := eng.Executions(); n != 0 {
		t.Errorf("rejected spec executed %d times", n)
	}

	jl.Close()
	jl2, pending, err := lab.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	if len(pending) != 0 {
		t.Fatalf("restart would re-arm %v", pending)
	}
}

// TestServerRecoversAcceptedJobs is the restart half of the durability
// contract: a journal holding an accepted-but-unfinished submission (the
// state a crash between 202 and completion leaves behind) must come back
// as a running job that completes and persists its artifact.
func TestServerRecoversAcceptedJobs(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.wal")
	body := shortSpec(t)
	sp, err := spec.Decode(body)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: "crashed" daemon — journal the acceptance, never run it.
	jl, _, err := lab.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Accepted(sp.Key(), body); err != nil {
		t.Fatal(err)
	}
	jl.Close()

	// Phase 2: restart. Replay must surface the job; Recover re-arms it.
	jl2, pending, err := lab.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	if len(pending) != 1 || pending[0].Key != sp.Key() {
		t.Fatalf("pending = %+v, want the accepted job", pending)
	}
	eng, store, err := lab.NewEngine(1, filepath.Join(dir, "store"), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := lab.NewServerOpts(eng, store, lab.Options{Journal: jl2})
	if n := srv.Recover(pending); n != 1 {
		t.Fatalf("Recover re-armed %d jobs, want 1", n)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st := waitDone(t, ts, sp.Key())
	if st.State != lab.StateDone {
		t.Fatalf("recovered job state = %s (%s), want done", st.State, st.Error)
	}
	if _, ok := store.StatKey(sp.Key()); !ok {
		t.Error("recovered job did not persist its artifact")
	}

	// /v1/status reports the recovery.
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		Journal lab.JournalStats `json:"journal"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Journal.Recovered != 1 {
		t.Errorf("status journal.recovered = %d, want 1", status.Journal.Recovered)
	}

	// Phase 3: another restart sees nothing pending — the terminal record
	// landed.
	jl2.Close()
	jl3, pending3, err := lab.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer jl3.Close()
	if len(pending3) != 0 {
		t.Fatalf("pending after completion = %v, want none", pending3)
	}
}
