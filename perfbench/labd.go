package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/runner"
	"repro/internal/spec"
	"repro/internal/workload"
)

const (
	labdWorkers = 2 // labd -workers
	labdClients = 2 // closed-loop clients
	// coldPerRep is how many never-seen specs a labd-cold repetition
	// submits.
	coldPerRep = 32
	// warmKeys is how many specs labd-warm's store holds. A repetition
	// restarts the daemon and submits each once, so every request is a
	// read from disk: the job ledger starts empty after a restart.
	warmKeys = 64
)

// labdBench drives an in-process labd over loopback with closed-loop
// clients. Cold: every request is a never-seen spec, executed and
// persisted. Warm: every request is a spec already in the store, and each
// repetition restarts the daemon over that store first.
type labdBench struct {
	warm   bool
	rec    *recorder // non-nil in traced runs: the daemon is wired with timing wrappers
	dir    string
	d      *daemon // labd-cold's daemon, up for the whole run
	tr     *http.Transport
	client *http.Client

	perRep int      // labd-cold: requests per repetition
	next   uint64   // labd-cold: seed offset of the next spec
	bodies [][]byte // labd-warm: the stored specs
	keys   []string
	// prof and its scaled instruction gap are what every LoadSpecs body
	// simulates; wantDg is the digest of the DeLorean result core.Run
	// computes for them.
	prof   *workload.Profile
	scale  uint64
	gap    uint64
	wantDg string

	reps int
	// counters summed over the traced repetitions
	syncs, execs, storeHits uint64
	rejected                atomic.Int64 // 429 responses
}

// daemon is one labd incarnation, wired like `labd -store DIR -workers 2`.
type daemon struct {
	eng   *runner.Engine
	store *artifact.Store
	jrnl  *lab.Journal
	hs    *http.Server
	url   string
	done  chan struct{}
}

// startDaemon opens the store and journal in dir and serves labd on a
// loopback port. Without a recorder the wiring is cmd/labd's own; with one
// the store's blob and runner tiers and the engine's progress hook are
// wrapped so calls into them leave spans (while recording is on).
func startDaemon(dir string, rec *recorder, parent int, id string) (*daemon, error) {
	d := &daemon{done: make(chan struct{})}
	var err error
	if rec == nil {
		d.eng, d.store, err = lab.NewEngine(labdWorkers, dir, 0)
	} else {
		d.eng, d.store, err = timedEngine(dir, rec, parent, id)
	}
	if err != nil {
		return nil, err
	}
	s := rec.begin("lab.journal.open", parent, id, "", "")
	jrnl, pending, err := lab.OpenJournal(filepath.Join(dir, "journal.wal"))
	rec.end(s)
	if err != nil {
		return nil, err
	}
	d.jrnl = jrnl
	srv := lab.NewServerOpts(d.eng, d.store, lab.Options{Journal: jrnl})
	srv.Recover(pending)
	if rec != nil {
		serverHook := d.eng.OnProgress
		d.eng.OnProgress = func(p runner.Progress) {
			rec.progress(p)
			serverHook(p)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		jrnl.Close()
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: srv.Handler()}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return d, nil
}

// stop closes the listener and every connection, waits for Serve to
// return, and closes the journal. Every job has finished by then: the
// clients waited for each.
func (d *daemon) stop() error {
	err := d.hs.Close()
	<-d.done
	if jerr := d.jrnl.Close(); err == nil {
		err = jerr
	}
	return err
}

func newLabd(o options, rec *recorder, warm bool) (bench, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workDir, o.workload+"-")
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: labdClients}
	b := &labdBench{
		warm: warm, rec: rec, dir: dir, tr: tr,
		client: &http.Client{Transport: tr, Timeout: time.Minute},
		perRep: coldPerRep, next: o.seed << 32,
	}
	keys := warmKeys
	if o.toy {
		b.perRep, keys = 4, 4
	}
	ok := false
	defer func() {
		if !ok {
			b.close()
		}
	}()
	probe, err := lab.LoadSpecs(1, b.next)
	if err != nil {
		return nil, err
	}
	if err := b.expect(probe[0]); err != nil {
		return nil, err
	}
	if b.d, err = startDaemon(dir, rec, -1, "setup"); err != nil {
		return nil, err
	}
	if warm {
		// The store the warm repetitions read: every key executed once.
		if b.bodies, err = lab.LoadSpecs(keys, b.next); err != nil {
			return nil, err
		}
		if b.keys, err = specKeys(b.bodies); err != nil {
			return nil, err
		}
		items := make([]item, len(b.bodies))
		for i := range b.bodies {
			items[i] = item{body: b.bodies[i], key: b.keys[i], fresh: true}
		}
		if _, failed := b.load(b.d.url, items); failed > 0 {
			return nil, fmt.Errorf("populating the store: %d of %d requests failed", failed, len(items))
		}
		err := b.d.stop()
		b.d = nil
		if err != nil {
			return nil, err
		}
	}
	ok = true
	return b, nil
}

// expect computes, with the library alone, the result the service must
// return for a LoadSpecs body.
func (b *labdBench) expect(body []byte) error {
	sp, err := spec.Decode(body)
	if err != nil {
		return err
	}
	p := sp.Params().(spec.SamplingParams)
	prof, err := p.Bench.Resolve()
	if err != nil {
		return err
	}
	res := core.Run(prof, spec.SeedConfig(p.Cfg, prof.Name, p.Method, ""))
	if b.wantDg, err = digest(evalOut{prof.Name, res.Regions, res.Counters}); err != nil {
		return err
	}
	b.prof, b.scale, b.gap = prof, p.Cfg.Scale, p.Cfg.Gap()
	return nil
}

func specKeys(bodies [][]byte) ([]string, error) {
	keys := make([]string, len(bodies))
	for i, body := range bodies {
		sp, err := spec.Decode(body)
		if err != nil {
			return nil, err
		}
		keys[i] = sp.Key()
	}
	return keys, nil
}

// item is one request a client sends, with what the response must show.
type item struct {
	body []byte
	key  string
	// fresh marks a never-seen spec, which the daemon must execute; any
	// other spec is in the store and must be served from it. Either way
	// the daemon has no job for it yet and answers 202.
	fresh bool
}

func (b *labdBench) rep(rec *recorder) (repOut, error) {
	id := fmt.Sprintf("rep-%d", b.reps)
	b.reps++
	d := b.d
	var items []item
	if b.warm {
		rs := rec.begin("lab.restart", -1, id, "", "")
		var err error
		if d, err = startDaemon(b.dir, b.rec, rs, id); err != nil {
			return repOut{}, err
		}
		rec.end(rs)
		for i := range b.bodies {
			items = append(items, item{body: b.bodies[i], key: b.keys[i]})
		}
	} else {
		bodies, err := lab.LoadSpecs(b.perRep, b.next)
		if err != nil {
			return repOut{}, err
		}
		b.next += uint64(b.perRep)
		keys, err := specKeys(bodies)
		if err != nil {
			return repOut{}, err
		}
		for i := range bodies {
			items = append(items, item{body: bodies[i], key: keys[i], fresh: true})
		}
	}

	syncs, execs, hits := d.jrnl.Stats().Syncs, d.eng.Executions(), d.eng.StoreHits()
	lats, failed := b.load(d.url, items)
	failed += b.checkArtifact(d.url, items[0].key)
	if b.warm {
		failed += b.checkNoExecutions(d.url)
	}
	if rec.enabled() {
		b.syncs += d.jrnl.Stats().Syncs - syncs
		b.execs += d.eng.Executions() - execs
		b.storeHits += d.eng.StoreHits() - hits
	}
	if b.warm {
		b.tr.CloseIdleConnections()
		if err := d.stop(); err != nil {
			return repOut{}, err
		}
	}
	return repOut{lat: lats, attempted: len(items), failed: failed}, nil
}

// load sends the items through labdClients closed-loop clients and
// returns the completed requests' latencies and the number that failed.
func (b *labdBench) load(url string, items []item) ([]time.Duration, int) {
	work := make(chan item)
	var (
		mu     sync.Mutex
		lats   []time.Duration
		failed int
		wg     sync.WaitGroup
	)
	for c := 0; c < labdClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				lat, err := b.request(url, it)
				mu.Lock()
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: request %s: %v\n", it.key[:12], err)
					failed++
				} else {
					lats = append(lats, lat)
				}
				mu.Unlock()
			}
		}()
	}
	for _, it := range items {
		work <- it
	}
	close(work)
	wg.Wait()
	return lats, failed
}

// request submits one spec, waits for its job and checks the outcome. The
// latency runs from the POST to the decoded /wait response.
func (b *labdBench) request(url string, it item) (time.Duration, error) {
	t0 := time.Now()
	r := b.rec.begin("lab.request", -1, it.key, "", spec.KindSampling)
	defer b.rec.end(r)
	var st lab.JobStatus
	code, err := b.call("lab.submit", r, it.key, &st, func() (*http.Response, error) {
		return b.client.Post(url+"/v1/specs", "application/json", bytes.NewReader(it.body))
	})
	if code == http.StatusTooManyRequests && b.rec.enabled() {
		b.rejected.Add(1)
	}
	if err != nil {
		return 0, fmt.Errorf("submit: status %d: %w", code, err)
	}
	if code != http.StatusAccepted || st.Key != it.key {
		return 0, fmt.Errorf("submit: status %d key %.12s, want %d", code, st.Key, http.StatusAccepted)
	}
	var fin lab.JobStatus
	code, err = b.call("lab.wait", r, it.key, &fin, func() (*http.Response, error) {
		return b.client.Get(url + "/v1/jobs/" + it.key + "/wait")
	})
	lat := time.Since(t0)
	switch {
	case err != nil:
		return 0, fmt.Errorf("wait: status %d: %w", code, err)
	case fin.State != lab.StateDone:
		return 0, fmt.Errorf("job ended %s: %s", fin.State, fin.Error)
	case it.fresh && fin.Cached:
		return 0, fmt.Errorf("a never-seen spec was served from cache")
	case !it.fresh && !fin.FromStore:
		return 0, fmt.Errorf("a stored spec was not served from the store")
	}
	return lat, nil
}

// call sends one HTTP request inside a span and decodes the JSON reply
// into v. It returns the status code (0 when no reply arrived).
func (b *labdBench) call(name string, parent int, key string, v any, send func() (*http.Response, error)) (int, error) {
	s := b.rec.begin(name, parent, key, "", "")
	defer b.rec.end(s)
	resp, err := send()
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// checkArtifact fetches one artifact and checks that it decodes to the
// DeLorean result core.Run computes for the same spec. It returns the
// number of failed checks (0 or 1).
func (b *labdBench) checkArtifact(url, key string) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "perfbench: artifact %.12s: %s\n", key, fmt.Sprintf(format, args...))
		return 1
	}
	resp, err := b.client.Get(url + "/v1/artifacts/" + key)
	if err != nil {
		return fail("%v", err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fail("status %d: %v", resp.StatusCode, err)
	}
	v, err := spec.Codecs()[spec.KindSampling].Decode(payload)
	if err != nil {
		return fail("decode: %v", err)
	}
	res, ok := v.(*core.Result)
	if !ok || res.Method != "DeLorean" || res.Bench != b.prof.Name {
		return fail("not a DeLorean result for %s: %T", b.prof.Name, v)
	}
	dg, err := digest(evalOut{res.Bench, res.Regions, res.Counters})
	if err != nil || dg != b.wantDg {
		return fail("digest %s, core.Run gives %s (%v)", dg, b.wantDg, err)
	}
	return 0
}

// checkNoExecutions checks that the daemon executed nothing: every
// labd-warm request must be served from the store or the ledger.
func (b *labdBench) checkNoExecutions(url string) int {
	resp, err := b.client.Get(url + "/v1/status")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: status: %v\n", err)
		return 1
	}
	var st struct {
		Executions uint64 `json:"executions"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || st.Executions != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: status reports %d executions (%v), want 0\n", st.Executions, err)
		return 1
	}
	return 0
}

func (b *labdBench) digests() digests { return nil }

// labdRank orders the layers of one request from the client inwards; a
// server-side span's parent is the deepest span of its request that
// contains it.
var labdRank = map[string]int{
	"lab.request": 0, "lab.submit": 1, "lab.wait": 1,
	"runner.sampling": 2, "runner.store_hit": 2, "runner.join": 2,
	"artifact.store.load": 3, "artifact.store.save": 3,
	"artifact.blob.get": 4, "artifact.blob.put": 4, "artifact.blob.touch": 4,
}

// link attaches every server-side span to the request it served: under
// the deepest span of that request (same key, lower rank) containing it,
// or under the request's wait when none does (an execution that starts
// before the 202 reaches the client still belongs inside the wait).
func (b *labdBench) link(spans []span) {
	byKey := map[string][]int{}
	for i, s := range spans {
		byKey[s.ID] = append(byKey[s.ID], i)
	}
	for rank := 2; rank <= 4; rank++ {
		for i, s := range spans {
			if r, ok := labdRank[s.Name]; !ok || r != rank {
				continue
			}
			mid := s.Start + s.dur()/2
			best, wait := -1, -1
			for _, j := range byKey[s.ID] {
				p := spans[j]
				pr, ok := labdRank[p.Name]
				if !ok || j == i {
					continue
				}
				if p.Name == "lab.wait" && spans[p.Parent].Start <= mid && mid <= spans[p.Parent].End {
					wait = j
				}
				if pr < rank && pr >= 2 && p.Start <= s.Start && s.End <= p.End && (best < 0 || pr > labdRank[spans[best].Name]) {
					best = j
				}
			}
			if best < 0 {
				best = wait
			}
			spans[i].Parent = best
		}
	}
}

func (b *labdBench) layers(m metrics, spans []span, tr tracedReps, w io.Writer) []*layer {
	b.link(spans)
	ls := layers(spans, selfTimes(spans))
	selfPct(m, ls, tr.capacity)
	ops := float64(tr.ops)
	var req, parts time.Duration
	for _, l := range ls {
		switch l.Name {
		case "artifact.store.load", "artifact.store.save", "artifact.blob.get", "artifact.blob.put":
			m.set(l.Name+"s", float64(l.Calls)/ops, "count")
		case "lab.request":
			for _, d := range l.Durs {
				req += d
			}
		case "lab.submit", "lab.wait":
			for _, d := range l.Durs {
				parts += d
			}
		}
	}
	m.set("lab.journal.syncs", float64(b.syncs)/ops, "count")
	m.set("lab.rejected", float64(b.rejected.Load()), "count")
	m.set("runner.executions", float64(b.execs)/ops, "count")
	m.set("runner.store_hits", float64(b.storeHits)/ops, "count")
	m.set("workload.skip_ns_per_instr", skipProbe([]*workload.Profile{b.prof}, b.scale, b.gap), "ns/instr")
	m.set("trace.reconcile_pct", pct(parts, req), "%")
	fmt.Fprintf(w, "reconcile: submit + wait %.4f s vs client request latency %.4f s (%.2f %%)\n", parts.Seconds(), req.Seconds(), pct(parts, req))
	return ls
}

func (b *labdBench) close() {
	if b.d != nil {
		if err := b.d.stop(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: stopping labd: %v\n", err)
		}
		b.d = nil
	}
	b.tr.CloseIdleConnections()
	if err := os.RemoveAll(b.dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
}

// timedEngine is lab.NewEngine with the store's blob tier and the engine's
// store tier wrapped in timing shims.
func timedEngine(dir string, rec *recorder, parent int, id string) (*runner.Engine, *artifact.Store, error) {
	s := rec.begin("artifact.open", parent, id, "", "")
	defer rec.end(s)
	disk, err := artifact.NewDiskBlob(dir)
	if err != nil {
		return nil, nil, err
	}
	st, err := artifact.OpenBlob(&timedBlob{disk, rec}, 0, spec.Codecs())
	if err != nil {
		return nil, nil, err
	}
	eng := runner.New(labdWorkers)
	eng.Store = &timedStore{st, rec}
	return eng, st, nil
}

// timedStore records a span around every call into the engine's artifact
// tier (runner.Store).
type timedStore struct {
	inner runner.Store
	rec   *recorder
}

func (t *timedStore) Load(kind, key string) (any, bool) {
	s := t.rec.begin("artifact.store.load", -1, key, "", kind)
	defer t.rec.end(s)
	return t.inner.Load(kind, key)
}

func (t *timedStore) Save(kind, key string, val any) {
	s := t.rec.begin("artifact.store.save", -1, key, "", kind)
	defer t.rec.end(s)
	t.inner.Save(kind, key, val)
}

// timedBlob records a span around every call into the store's disk tier
// (artifact.Blob and its pooled-read and touch extensions, so the store
// takes the same paths it takes over a bare DiskBlob).
type timedBlob struct {
	inner *artifact.DiskBlob
	rec   *recorder
}

func (t *timedBlob) Get(key string) ([]byte, bool) {
	s := t.rec.begin("artifact.blob.get", -1, key, "", "")
	defer t.rec.end(s)
	return t.inner.Get(key)
}

func (t *timedBlob) GetPooled(key string) ([]byte, func(), error) {
	s := t.rec.begin("artifact.blob.get", -1, key, "", "")
	defer t.rec.end(s)
	return t.inner.GetPooled(key)
}

func (t *timedBlob) Put(key string, data []byte) bool {
	s := t.rec.begin("artifact.blob.put", -1, key, "", "")
	defer t.rec.end(s)
	return t.inner.Put(key, data)
}

func (t *timedBlob) Touch(key string) {
	s := t.rec.begin("artifact.blob.touch", -1, key, "", "")
	defer t.rec.end(s)
	t.inner.Touch(key)
}

func (t *timedBlob) Stat(key string) (artifact.BlobInfo, bool) { return t.inner.Stat(key) }
func (t *timedBlob) Delete(key string) bool                    { return t.inner.Delete(key) }
func (t *timedBlob) List() []artifact.BlobInfo                 { return t.inner.List() }
