package lab

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/runner"
	"repro/internal/spec"
)

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
// slot and are TTL-pruned from the ledger.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
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
	// journal. pinned marks one acknowledged from the store instead: it
	// holds a store pin on its artifact until it finishes.
	journaled bool
	pinned    bool
}

// arm (re)initializes the job's execution state for a new incarnation:
// fresh done channel, fresh cancellation scope.
func (j *job) arm() {
	j.cached, j.fromStore = false, false
	j.err = ""
	j.val = nil
	j.started, j.finished = time.Time{}, time.Time{}
	j.done = make(chan struct{})
	j.ctx, j.cancel = context.WithCancel(context.Background())
}

// status is j's wire form; the caller holds the ledger lock.
func (j *job) status() JobStatus {
	bench, method, extra := j.spec.Identity()
	st := JobStatus{Key: j.spec.Key(), Kind: j.spec.Kind(),
		Bench: bench, Method: method, Extra: extra,
		State: j.state, Cached: j.cached, FromStore: j.fromStore, Error: j.err}
	switch {
	case j.state == StateRunning:
		st.ElapsedMS = time.Since(j.started).Milliseconds()
	case terminal(j.state) && !j.started.IsZero():
		st.ElapsedMS = j.finished.Sub(j.started).Milliseconds()
	}
	return st
}

// errRetryLater marks an admission refusal: the queue, or the ledger,
// is full of live work.
var errRetryLater = errors.New("retry later")

// ledger is labd's job lifecycle (DESIGN.md §11, §14). It owns the job
// map, the per-state counts, every journal record and fsync, and the
// store pins, under one lock. Its methods are the transitions of this
// table, and none of them knows about HTTP: an admission refusal
// (errRetryLater) or a journal failure comes back as an error.
//
//	from                   event                               to          journal record (fsync?)         store     counts
//	—                      submit, store indexes the artifact  queued      none                            Pin       stored
//	—                      submit, otherwise                   queued      accepted + body (fsync)         —
//	failed, cancelled      resubmit                            queued      as the two rows above           as above
//	done, result gone*     resubmit                            queued      as above                        as above
//	queued, running, done  resubmit                            unchanged   none                            —         (cached when done)
//	—                      Recover of a replayed pending job   queued      none (its record is on disk)    —         recovered
//	queued                 worker slot; pinned, not indexed    running     late accepted (fsync), started  —
//	queued                 worker slot                         running     started if journaled            —
//	queued                 cancel before a slot, or late       cancelled,  terminal if journaled           Unpin
//	                       record fails                        failed
//	running                executor returns                    terminal    terminal if journaled           Unpin
//	terminal               TTL or MaxJobs overflow             removed     none                            —         its state's −1
//
// * its result neither indexed by the store nor held in memory; any other
// done job is served.
//
// Without a journal nothing is written and nothing is pinned. Only the
// accepted record is fsynced: it is the durability point, and losing any
// other record costs a redundant re-execution on replay, never a job.
// Every record is appended under the lock, so a racing re-arm's accepted
// record can never land before the terminal record it supersedes (replay
// would then drop a live job).
type ledger struct {
	store *artifact.Store // nil: results are held in memory only
	jrnl  *Journal        // nil: no crash durability
	opts  Options

	stored    atomic.Uint64 // submissions acknowledged from the store without a record
	recovered atomic.Uint64 // replayed jobs re-armed by Recover

	mu        sync.Mutex
	jobs      map[string]*job
	counts    map[string]int // jobs per state
	lastPrune time.Time
}

func newLedger(store *artifact.Store, opts Options) *ledger {
	return &ledger{store: store, jrnl: opts.Journal, opts: opts,
		jobs: make(map[string]*job), counts: make(map[string]int, len(jobStates))}
}

// move puts j in state to and keeps the per-state counts.
func (l *ledger) move(j *job, to string) {
	if j.state != "" { // "": a job entering the ledger
		l.counts[j.state]--
	}
	l.counts[to]++
	j.state = to
}

// submit is the one accept path. It answers a resubmit of a live job, or
// of a done one whose result is still served, with that job's status.
// Otherwise it queues a new incarnation, and returns armed, after making
// it durable: the accepted record (with the verbatim body, which replay
// resubmits) is fsynced before the caller acknowledges, unless the store
// indexes the artifact, which is then pinned as the durability point
// instead. replay marks a job Recover found pending in the journal: it was
// admitted and journaled by a previous process, so admission, the pin and
// the record are all skipped.
func (l *ledger) submit(sp spec.Spec, body []byte, replay bool) (j *job, st JobStatus, armed bool, err error) {
	key := sp.Key()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pruneLocked(time.Now())
	j, known := l.jobs[key]
	if known && l.servedLocked(j) {
		st = j.status()
		st.Cached = j.state == StateDone
		return j, st, false, nil
	}
	stored := false
	if !replay {
		if err := l.admitLocked(!known); err != nil {
			return nil, st, false, err
		}
		stored = l.jrnl != nil && l.store != nil && l.store.Pin(key)
		if l.jrnl != nil && !stored {
			if err := l.jrnl.Accepted(key, body); err != nil {
				return nil, st, false, fmt.Errorf("journal submission: %w", err)
			}
		}
	}
	if !known {
		j = &job{spec: sp}
		l.jobs[key] = j
	}
	j.arm()
	l.move(j, StateQueued)
	j.journaled, j.pinned = l.jrnl != nil && !stored, stored
	if stored {
		l.stored.Add(1)
	}
	if replay {
		l.recovered.Add(1)
	}
	return j, j.status(), true, nil
}

// servedLocked reports whether a resubmit is answered from j as it
// stands: it is live, or done with its result in memory or in the store's
// index. A failure may be transient (and the engine never caches errors),
// and an evicted or corrupt artifact is gone, so every other job re-runs.
func (l *ledger) servedLocked(j *job) bool {
	switch j.state {
	case StateQueued, StateRunning:
		return true
	case StateDone:
		return j.val != nil || l.indexed(j.spec.Key())
	}
	return false
}

// admitLocked applies admission control for one queue entry. newJob
// distinguishes a fresh submission (it needs a ledger slot too) from a
// re-armed one (already a ledger entry, so only the queue bound applies,
// and the ledger check must not evict the very job being re-armed).
func (l *ledger) admitLocked(newJob bool) error {
	if max, n := l.opts.MaxQueue, l.counts[StateQueued]; max > 0 && n >= max {
		return fmt.Errorf("queue full (%d queued); %w", n, errRetryLater)
	}
	if max := l.opts.MaxJobs; newJob && max > 0 && len(l.jobs) >= max {
		// Make room by dropping finished history before refusing: only a
		// ledger full of live (queued/running) work is a real overload.
		l.evictTerminalLocked(len(l.jobs) - max + 1)
		if len(l.jobs) >= max {
			return fmt.Errorf("job ledger full (%d live jobs); %w", len(l.jobs), errRetryLater)
		}
	}
	return nil
}

// start moves j from queued to running once it holds a worker slot. A job
// acknowledged from the store whose artifact has since left the index
// (the pin keeps eviction away, but not a store-level delete or a missing
// or corrupt blob) must execute, so it is journaled first: its accepted
// record and fsync land before the execution starts. If that record
// fails, j stays queued and the caller finishes it with the error.
func (l *ledger) start(j *job) error {
	key := j.spec.Key()
	l.mu.Lock()
	defer l.mu.Unlock()
	if j.pinned && !j.journaled && !l.indexed(key) {
		// The re-encoded spec replays to the same content key.
		body, err := json.Marshal(j.spec)
		if err == nil {
			err = l.jrnl.Accepted(key, body)
		}
		if err != nil {
			return fmt.Errorf("journal submission: %w", err)
		}
		j.journaled = true
	}
	l.move(j, StateRunning)
	j.started = time.Now()
	if j.journaled {
		_ = l.jrnl.Started(key) // best-effort: loss re-runs, never loses, the job
	}
	return nil
}

// finish moves j to its terminal state and wakes its waiters. A result
// the store indexes is not kept in memory: the artifact route serves it
// from the store, and a long-running daemon's ledger must not hold every
// result. A store hit arrives as a nil val (verified, not decoded); if
// its artifact has left the index by now the job holds no result, so the
// artifact route answers 404 and a resubmit re-runs it.
func (l *ledger) finish(j *job, val any, err error) {
	key := j.spec.Key()
	l.mu.Lock()
	j.finished = time.Now()
	if j.pinned {
		l.store.Unpin(key)
		j.pinned = false
	}
	switch {
	case err == nil:
		l.move(j, StateDone)
		if !l.indexed(key) {
			j.val = val
		}
	case j.ctx.Err() != nil:
		// The job's own context was cancelled (DELETE or abandoned wait):
		// report "cancelled", not a failure.
		l.move(j, StateCancelled)
		j.err = err.Error()
	default:
		l.move(j, StateFailed)
		j.err = err.Error()
	}
	if j.journaled {
		_ = l.jrnl.Finished(key, j.state)
	}
	// Capture this incarnation's channel and cancel under the lock: once
	// the state is terminal a racing resubmit may re-arm the job and
	// replace both, and cancelling the new incarnation's context would
	// abort the re-run.
	done, cancel := j.done, j.cancel
	l.mu.Unlock()
	cancel() // release the context's resources; no-op if already cancelled
	close(done)
}

// indexed reports whether the local store's index holds key's artifact,
// without reading it.
func (l *ledger) indexed(key string) bool {
	if l.store == nil {
		return false
	}
	_, ok := l.store.StatKey(key)
	return ok
}

// progress attributes an engine completion event to its running job.
func (l *ledger) progress(p runner.Progress) {
	l.mu.Lock()
	if j, ok := l.jobs[p.Key]; ok && j.state == StateRunning {
		j.cached, j.fromStore = p.Cached, p.FromStore
	}
	l.mu.Unlock()
}

// view is one job's state, read in one locked snapshot.
type view struct {
	st     JobStatus
	done   chan struct{} // closed when this incarnation finishes
	cancel context.CancelFunc
	val    any // a done job's result; nil once the store holds it
}

// view snapshots key's job. With attach, a live incarnation also gains a
// /wait client, which must detach.
func (l *ledger) view(key string, attach bool) (*job, view, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	j, ok := l.jobs[key]
	if !ok {
		return nil, view{}, false
	}
	if attach && !terminal(j.state) {
		j.waiters++
	}
	return j, view{st: j.status(), done: j.done, cancel: j.cancel, val: j.val}, true
}

// detach drops a /wait client from the incarnation whose done channel it
// holds. It returns j's status, and whether that client was the last one
// of a still-live incarnation: nobody is left to consume the result, so
// the caller cancels the job. Matching done keeps a waiter from
// cancelling a re-armed incarnation it never waited on.
func (l *ledger) detach(j *job, done chan struct{}) (JobStatus, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	j.waiters--
	return j.status(), j.waiters == 0 && !terminal(j.state) && j.done == done
}

// snapshot prunes the ledger and returns its size and per-state counts.
func (l *ledger) snapshot(now time.Time) (int, map[string]int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pruneLocked(now)
	counts := make(map[string]int, len(jobStates))
	for _, st := range jobStates {
		counts[st] = l.counts[st]
	}
	return len(l.jobs), counts
}

// pruneLocked bounds the ledger: terminal jobs past their TTL are
// dropped, and when the ledger exceeds MaxJobs the oldest-finished
// terminal jobs are evicted early. Queued and running jobs are never
// pruned. The TTL sweep is O(jobs), so it is throttled to at most once
// per TTL/4; the overflow eviction runs whenever needed.
func (l *ledger) pruneLocked(now time.Time) {
	ttl := l.opts.JobTTL
	if ttl > 0 && now.Sub(l.lastPrune) >= ttl/4 {
		l.lastPrune = now
		for _, j := range l.jobs {
			if terminal(j.state) && now.Sub(j.finished) > ttl {
				l.removeLocked(j)
			}
		}
	}
	if max := l.opts.MaxJobs; max > 0 && len(l.jobs) > max {
		l.evictTerminalLocked(len(l.jobs) - max)
	}
}

// evictTerminalLocked drops up to n terminal jobs, oldest-finished first.
// If fewer than n exist the ledger stays over bound (admission control
// then refuses new work).
func (l *ledger) evictTerminalLocked(n int) {
	for ; n > 0; n-- {
		var victim *job
		for _, j := range l.jobs {
			if terminal(j.state) && (victim == nil || j.finished.Before(victim.finished)) {
				victim = j
			}
		}
		if victim == nil {
			return
		}
		l.removeLocked(victim)
	}
}

func (l *ledger) removeLocked(j *job) {
	l.counts[j.state]--
	delete(l.jobs, j.spec.Key())
}
