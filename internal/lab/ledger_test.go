package lab

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/spec"
)

// ledgerRig drives a ledger over a real journal and a real store whose
// byte budget holds one unpinned artifact, with no HTTP in between.
type ledgerRig struct {
	t     *testing.T
	l     *ledger
	jrnl  *Journal
	jpath string
	store *artifact.Store
	sp    spec.Spec
	body  []byte
	// last is what the latest submit answered, and armed whether it
	// queued a new incarnation.
	last  JobStatus
	armed bool
}

func newLedgerRig(t *testing.T, opts Options) *ledgerRig {
	t.Helper()
	dir := t.TempDir()
	r := &ledgerRig{t: t, jpath: filepath.Join(dir, "journal.wal")}
	var err error
	if r.jrnl, _, err = OpenJournal(r.jpath); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.jrnl.Close() })
	if _, r.store, err = NewEngine(1, filepath.Join(dir, "store"), 1); err != nil {
		t.Fatal(err)
	}
	opts.Journal = r.jrnl
	r.l = newLedger(r.store, opts.withDefaults())
	r.body, _ = probeSpec(t, "ledger")
	if r.sp, err = spec.Decode(r.body); err != nil {
		t.Fatal(err)
	}
	return r
}

// submit drives the accept path for the rig's spec (replay: as Recover).
func (r *ledgerRig) submit(replay bool) *job {
	r.t.Helper()
	j, st, armed, err := r.l.submit(r.sp, r.body, replay)
	if err != nil {
		r.t.Fatal(err)
	}
	r.last, r.armed = st, armed
	return j
}

// run takes j through a worker slot to the executor's result.
func (r *ledgerRig) run(j *job, val any, err error) *job {
	r.t.Helper()
	if err := r.l.start(j); err != nil {
		r.t.Fatal(err)
	}
	r.l.finish(j, val, err)
	return j
}

// save puts the spec's artifact in the store's index.
func (r *ledgerRig) save() { r.store.Save("journalprobe", r.sp.Key(), "v") }

// pinned reports whether the spec's (indexed) artifact survives a save
// that the one-artifact budget would evict it for.
func (r *ledgerRig) pinned() bool {
	_, filler := probeSpec(r.t, "filler")
	r.store.Save("journalprobe", filler, "v")
	_, ok := r.store.StatKey(r.sp.Key())
	return ok
}

// TestLedgerTransitions drives every row of the ledger's transition table
// and checks the resulting state, the per-state counts, the journal
// records and fsyncs the transition cost, and what a restart would
// replay from the WAL afterwards.
func TestLedgerTransitions(t *testing.T) {
	fail := errors.New("executor fault")
	fresh := func(r *ledgerRig) *job { return r.submit(false) }
	stored := func(r *ledgerRig) *job { r.save(); return fresh(r) }
	resubmit := func(r *ledgerRig, _ *job) *job { return r.submit(false) }
	unchanged := func(cached bool) func(*testing.T, *ledgerRig) {
		return func(t *testing.T, r *ledgerRig) {
			if r.armed || r.last.Cached != cached {
				t.Errorf("armed %v cached %v, want a status answer with cached %v", r.armed, r.last.Cached, cached)
			}
		}
	}
	pinned := func(want bool) func(*testing.T, *ledgerRig) {
		return func(t *testing.T, r *ledgerRig) {
			if got := r.pinned(); got != want {
				t.Errorf("artifact pinned: %v, want %v", got, want)
			}
		}
	}
	rows := []struct {
		from, event string
		opts        Options
		prep        func(*ledgerRig) *job       // brings the job to from (nil: not in the ledger)
		do          func(*ledgerRig, *job) *job // the event; returns the job to check
		to          string                      // "": removed from the ledger
		counts      map[string]int              // non-zero per-state counts after
		records     uint64                      // journal records the event appends
		syncs       uint64                      // fsyncs the event issues
		pending     bool                        // a restart re-arms the job
		stored      uint64                      // the ledger's stored count after
		recovered   uint64                      // the ledger's recovered count after
		check       func(*testing.T, *ledgerRig)
	}{
		{from: "-", event: "submit, store indexes the artifact",
			prep: func(r *ledgerRig) *job { r.save(); return nil }, do: resubmit,
			to: StateQueued, counts: map[string]int{StateQueued: 1}, stored: 1, check: pinned(true)},
		{from: "-", event: "submit, otherwise", do: resubmit,
			to: StateQueued, counts: map[string]int{StateQueued: 1}, records: 1, syncs: 1, pending: true},
		{from: "failed", event: "resubmit",
			prep: func(r *ledgerRig) *job { return r.run(fresh(r), nil, fail) }, do: resubmit,
			to: StateQueued, counts: map[string]int{StateQueued: 1}, records: 1, syncs: 1, pending: true},
		{from: "cancelled", event: "resubmit, store indexes the artifact",
			prep: func(r *ledgerRig) *job {
				j := fresh(r)
				j.cancel()
				r.l.finish(j, nil, j.ctx.Err())
				r.save()
				return j
			}, do: resubmit,
			to: StateQueued, counts: map[string]int{StateQueued: 1}, stored: 1, check: pinned(true)},
		{from: "done, artifact neither indexed nor in memory", event: "resubmit",
			prep: func(r *ledgerRig) *job {
				j := r.run(stored(r), "v", nil) // indexed at finish: not kept in memory
				r.store.DeleteKey(r.sp.Key())
				return j
			}, do: resubmit,
			to: StateQueued, counts: map[string]int{StateQueued: 1}, records: 1, syncs: 1, pending: true, stored: 1},
		{from: "queued", event: "resubmit", prep: fresh, do: resubmit,
			to: StateQueued, counts: map[string]int{StateQueued: 1}, pending: true, check: unchanged(false)},
		{from: "running", event: "resubmit",
			prep: func(r *ledgerRig) *job {
				j := fresh(r)
				if err := r.l.start(j); err != nil {
					r.t.Fatal(err)
				}
				return j
			}, do: resubmit,
			to: StateRunning, counts: map[string]int{StateRunning: 1}, pending: true, check: unchanged(false)},
		{from: "done, result in memory", event: "resubmit",
			prep: func(r *ledgerRig) *job { return r.run(fresh(r), "v", nil) }, do: resubmit,
			to: StateDone, counts: map[string]int{StateDone: 1}, check: unchanged(true)},
		{from: "done, artifact indexed", event: "resubmit",
			prep: func(r *ledgerRig) *job { return r.run(stored(r), "v", nil) }, do: resubmit,
			to: StateDone, counts: map[string]int{StateDone: 1}, stored: 1, check: unchanged(true)},
		{from: "-", event: "Recover of a replayed pending job",
			prep: func(r *ledgerRig) *job {
				if err := r.jrnl.Accepted(r.sp.Key(), r.body); err != nil { // as a previous process did
					r.t.Fatal(err)
				}
				return nil
			},
			do: func(r *ledgerRig, _ *job) *job { return r.submit(true) },
			to: StateQueued, counts: map[string]int{StateQueued: 1}, pending: true, recovered: 1},
		{from: "queued", event: "worker slot; pinned but no longer indexed",
			prep: func(r *ledgerRig) *job {
				j := stored(r)
				r.store.DeleteKey(r.sp.Key())
				return j
			},
			do: func(r *ledgerRig, j *job) *job { r.l.start(j); return j },
			to: StateRunning, counts: map[string]int{StateRunning: 1}, records: 2, syncs: 1, pending: true, stored: 1},
		{from: "queued", event: "worker slot", prep: fresh,
			do: func(r *ledgerRig, j *job) *job { r.l.start(j); return j },
			to: StateRunning, counts: map[string]int{StateRunning: 1}, records: 1, pending: true},
		{from: "queued, pinned", event: "worker slot", prep: stored,
			do: func(r *ledgerRig, j *job) *job { r.l.start(j); return j },
			to: StateRunning, counts: map[string]int{StateRunning: 1}, stored: 1, check: pinned(true)},
		{from: "queued", event: "cancel before a slot", prep: fresh,
			do: func(r *ledgerRig, j *job) *job { j.cancel(); r.l.finish(j, nil, j.ctx.Err()); return j },
			to: StateCancelled, counts: map[string]int{StateCancelled: 1}, records: 1},
		{from: "queued, pinned", event: "cancel before a slot", prep: stored,
			do: func(r *ledgerRig, j *job) *job { j.cancel(); r.l.finish(j, nil, j.ctx.Err()); return j },
			to: StateCancelled, counts: map[string]int{StateCancelled: 1}, stored: 1, check: pinned(false)},
		{from: "queued, pinned", event: "the late record fails",
			prep: func(r *ledgerRig) *job {
				j := stored(r)
				r.store.DeleteKey(r.sp.Key())
				r.jrnl.Close() // every append now fails
				return j
			},
			do: func(r *ledgerRig, j *job) *job {
				err := r.l.start(j)
				if err == nil {
					r.t.Fatal("start journaled a job on a closed journal")
				}
				r.l.finish(j, nil, err)
				return j
			},
			to: StateFailed, counts: map[string]int{StateFailed: 1}, stored: 1,
			check: func(t *testing.T, r *ledgerRig) {
				r.save() // back in the index: its pin, if leaked, would keep it
				pinned(false)(t, r)
			}},
		{from: "running", event: "executor returns a result",
			prep: func(r *ledgerRig) *job { j := fresh(r); r.l.start(j); return j },
			do:   func(r *ledgerRig, j *job) *job { r.l.finish(j, "v", nil); return j },
			to:   StateDone, counts: map[string]int{StateDone: 1}, records: 1},
		{from: "running", event: "executor returns an error",
			prep: func(r *ledgerRig) *job { j := fresh(r); r.l.start(j); return j },
			do:   func(r *ledgerRig, j *job) *job { r.l.finish(j, nil, fail); return j },
			to:   StateFailed, counts: map[string]int{StateFailed: 1}, records: 1},
		{from: "running", event: "executor returns after a cancel",
			prep: func(r *ledgerRig) *job { j := fresh(r); r.l.start(j); return j },
			do:   func(r *ledgerRig, j *job) *job { j.cancel(); r.l.finish(j, nil, j.ctx.Err()); return j },
			to:   StateCancelled, counts: map[string]int{StateCancelled: 1}, records: 1},
		{from: "running, pinned", event: "executor returns a result",
			prep: func(r *ledgerRig) *job { j := stored(r); r.l.start(j); return j },
			do:   func(r *ledgerRig, j *job) *job { r.l.finish(j, "v", nil); return j },
			to:   StateDone, counts: map[string]int{StateDone: 1}, stored: 1, check: pinned(false)},
		{from: "done", event: "TTL", opts: Options{JobTTL: time.Minute},
			prep: func(r *ledgerRig) *job { return r.run(fresh(r), "v", nil) },
			do:   func(r *ledgerRig, j *job) *job { r.l.snapshot(time.Now().Add(2 * time.Minute)); return j }},
		{from: "failed", event: "MaxJobs overflow", opts: Options{MaxJobs: 1},
			prep: func(r *ledgerRig) *job { return r.run(fresh(r), nil, fail) },
			do: func(r *ledgerRig, j *job) *job {
				// Recover skips admission, so the ledger overflows and
				// the next prune evicts the terminal job.
				sp := spec.MustNew(probeParams{ID: "other"})
				if _, _, _, err := r.l.submit(sp, nil, true); err != nil {
					r.t.Fatal(err)
				}
				r.l.snapshot(time.Now())
				return j
			},
			counts: map[string]int{StateQueued: 1}, recovered: 1},
	}
	for _, row := range rows {
		row := row
		t.Run(fmt.Sprintf("%s/%s", row.from, row.event), func(t *testing.T) {
			r := newLedgerRig(t, row.opts)
			var j *job
			if row.prep != nil {
				j = row.prep(r)
			}
			before := r.jrnl.Stats()
			j = row.do(r, j)
			after := r.jrnl.Stats()
			if d := after.Records - before.Records; d != row.records {
				t.Errorf("%d journal records, want %d", d, row.records)
			}
			if d := after.Syncs - before.Syncs; d != row.syncs {
				t.Errorf("%d fsyncs, want %d", d, row.syncs)
			}

			n, counts := r.l.snapshot(time.Now())
			got, total := map[string]int{}, 0
			for state, c := range counts {
				if c != 0 {
					got[state] = c
				}
				total += c
			}
			if fmt.Sprint(got) != fmt.Sprint(row.counts) || total != n {
				t.Errorf("counts %v over %d jobs, want %v", got, n, row.counts)
			}
			r.l.mu.Lock()
			cur, ok := r.l.jobs[r.sp.Key()]
			state := ""
			if ok {
				state = cur.state
			}
			r.l.mu.Unlock()
			if ok != (row.to != "") || (ok && (cur != j || state != row.to)) {
				t.Errorf("job is %q (in the ledger: %v), want %q", state, ok, row.to)
			}
			if s, rc := r.l.stored.Load(), r.l.recovered.Load(); s != row.stored || rc != row.recovered {
				t.Errorf("stored %d recovered %d, want %d and %d", s, rc, row.stored, row.recovered)
			}
			if row.check != nil {
				row.check(t, r)
			}

			r.jrnl.Close()
			jl, pending, err := OpenJournal(r.jpath)
			if err != nil {
				t.Fatal(err)
			}
			r.jrnl = jl
			var want []string
			if row.pending {
				want = []string{r.sp.Key()}
			}
			if got := pendingKeys(pending); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("replay re-arms %v, want %v", got, want)
			}
		})
	}
}

// TestResubmitRerunsEvictedDoneJob: a done job whose artifact the store
// evicted, and whose result the job no longer holds in memory, re-runs
// on resubmit instead of answering "done, cached" for an artifact that
// GET /v1/artifacts/{key} cannot serve.
func TestResubmitRerunsEvictedDoneJob(t *testing.T) {
	r := newStoreFirstRig(t, 1) // the budget holds the newest artifact only
	bodyA, keyA := probeSpec(t, "evicted-done-a")
	bodyB, keyB := probeSpec(t, "evicted-done-b")
	for _, s := range []struct {
		body []byte
		key  string
	}{{bodyA, keyA}, {bodyB, keyB}} {
		r.submit(t, s.body)
		if st := r.wait(t, s.key); st.State != StateDone {
			t.Fatalf("first run of %.12s: %+v, want done", s.key, st)
		}
	}
	if _, ok := r.store.StatKey(keyA); ok {
		t.Fatal("A's artifact survived B's save; the budget must evict it")
	}

	r.submit(t, bodyA)
	if st := r.wait(t, keyA); st.State != StateDone || st.Cached {
		t.Fatalf("resubmitted A: %+v, want done by execution", st)
	}
	if n := r.eng.Executions(); n != 3 {
		t.Errorf("%d executions, want 3 (A, B, A again)", n)
	}
	resp, err := http.Get(r.ts.URL + "/v1/artifacts/" + keyA)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/artifacts/A after the re-run: status %d, want 200", resp.StatusCode)
	}
}

// TestSubmitBodyTooLarge: a submission one byte over the body bound is
// refused with 413 before it reaches the ledger or the journal.
func TestSubmitBodyTooLarge(t *testing.T) {
	r := newStoreFirstRig(t, 0)
	resp, err := http.Post(r.ts.URL+"/v1/specs", "application/json", bytes.NewReader(make([]byte, maxBody+1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if jobs, _ := r.srv.jobs.snapshot(time.Now()); jobs != 0 {
		t.Errorf("%d jobs in the ledger, want none", jobs)
	}
	if rec, _ := r.records(); rec != 0 {
		t.Errorf("%d journal records, want none", rec)
	}
}
