// Durable job journal (DESIGN.md §14): an append-only, checksummed WAL of
// job lifecycle transitions that makes accepted work survive a labd crash.
// The durability contract is at most one fsync wide: an accepted
// submission is durable at its `accepted` record, synced to disk before
// the client sees 202, or, when the store indexes its artifact at
// acceptance, at that artifact — such a submission gets no record at
// all, its job pins the artifact against eviction until it finishes,
// and the server journals it (with the fsync) only if the artifact is
// deleted or found missing before it runs. `started` and terminal
// records are appended without syncing — losing them costs a redundant
// re-execution on replay (at-least-once), never a lost job, because
// execution itself is idempotent (specs are content-keyed and results
// content-addressed).
package lab

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/faultpoint"
)

// Journal record operations, in lifecycle order. `accepted` is the only
// record that carries the raw spec body (replay needs it to resubmit) and
// the only one that is fsynced (it is the durability point).
const (
	opAccepted  = "accepted"
	opStarted   = "started"
	opDone      = "done"
	opFailed    = "failed"
	opCancelled = "cancelled"
)

// journalRecord is one WAL line's payload. The on-disk form is
// "crc32(json) as 8 hex digits, space, json, newline" — the checksum
// turns a torn tail write into a clean replay stop instead of a decode
// of garbage.
type journalRecord struct {
	Op   string          `json:"op"`
	Key  string          `json:"key"`
	Body json.RawMessage `json:"body,omitempty"`
}

// PendingJob is one journaled submission that never reached a terminal
// state: accepted (and possibly started) but not done, failed or
// cancelled when the process died. Server.Recover re-arms these.
type PendingJob struct {
	Key  string
	Body []byte
}

// Journal is the durable job WAL. All methods are safe for concurrent
// use; Accepted additionally syncs before returning.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string

	records   atomic.Uint64 // records appended by this process
	syncs     atomic.Uint64 // fsyncs issued by this process
	recovered uint64        // pending jobs found at open (immutable after)
}

// OpenJournal replays the WAL at path (which need not exist yet),
// compacts it down to its live records, and returns the journal plus the
// jobs that were accepted but never finished. Replay is resilient by
// construction: it stops at the first corrupt or truncated line — the
// torn tail a crash mid-append leaves — and keeps everything before it;
// duplicate records for one key are fine, the latest operation wins.
func OpenJournal(path string) (*Journal, []PendingJob, error) {
	pending, err := replayJournal(path)
	if err != nil {
		return nil, nil, err
	}
	if err := compactJournal(path, pending); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	jl := &Journal{f: f, path: path, recovered: uint64(len(pending))}
	return jl, pending, nil
}

// replayJournal folds the WAL into the set of still-pending jobs, in
// acceptance order.
func replayJournal(path string) ([]PendingJob, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}

	type state struct {
		op   string
		body []byte
	}
	latest := make(map[string]*state)
	var order []string

	for len(raw) > 0 {
		nl := bytes.IndexByte(raw, '\n')
		if nl < 0 {
			break // truncated tail: a write died mid-line
		}
		line := raw[:nl]
		raw = raw[nl+1:]
		sp := bytes.IndexByte(line, ' ')
		if sp != 8 {
			break
		}
		want, err := strconv.ParseUint(string(line[:sp]), 16, 32)
		if err != nil || crc32.ChecksumIEEE(line[sp+1:]) != uint32(want) {
			break // torn or corrupt line: stop replay here
		}
		var rec journalRecord
		if json.Unmarshal(line[sp+1:], &rec) != nil || rec.Key == "" {
			break
		}
		st, ok := latest[rec.Key]
		if !ok {
			st = &state{}
			latest[rec.Key] = st
			order = append(order, rec.Key)
		}
		st.op = rec.Op
		if len(rec.Body) > 0 {
			st.body = append([]byte(nil), rec.Body...)
		}
	}

	var pending []PendingJob
	for _, key := range order {
		st := latest[key]
		if (st.op == opAccepted || st.op == opStarted) && len(st.body) > 0 {
			pending = append(pending, PendingJob{Key: key, Body: st.body})
		}
	}
	return pending, nil
}

// compactJournal rewrites the WAL to exactly one accepted record per
// pending job — terminal history and any torn tail are dropped — via the
// usual temp-file + rename + directory-sync dance, so a crash during
// compaction leaves either the old journal or the new one, never a mix.
func compactJournal(path string, pending []PendingJob) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "journal-*.tmp")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(tmp)
	for _, p := range pending {
		w.Write(encodeRecord(journalRecord{Op: opAccepted, Key: p.Key, Body: p.Body}))
	}
	ferr := w.Flush()
	serr := tmp.Sync()
	cerr := tmp.Close()
	if ferr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("compact journal: flush=%v sync=%v close=%v", ferr, serr, cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	syncDirBestEffort(dir)
	return nil
}

// syncDirBestEffort fsyncs a directory so a just-renamed entry survives
// power loss; errors are ignored (some filesystems refuse directory
// fsync, and the fallback is only a weaker durability window).
func syncDirBestEffort(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

func encodeRecord(rec journalRecord) []byte {
	data, _ := json.Marshal(rec) // journalRecord marshalling cannot fail
	line := make([]byte, 0, len(data)+10)
	line = fmt.Appendf(line, "%08x ", crc32.ChecksumIEEE(data))
	line = append(line, data...)
	return append(line, '\n')
}

// append writes one record; when sync is set it is fsynced before
// returning (the accepted-record durability point).
func (jl *Journal) append(rec journalRecord, sync bool) error {
	line := encodeRecord(rec)
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if _, err := jl.f.Write(line); err != nil {
		return err
	}
	jl.records.Add(1)
	if sync {
		faultpoint.Hit("journal.accept") // chaos: crash after the write, before it is durable
		if err := jl.f.Sync(); err != nil {
			return err
		}
		jl.syncs.Add(1)
	}
	return nil
}

// Accepted journals a submission durably; it must succeed before the
// client is told 202. body is the raw spec submission, replayed verbatim
// on recovery.
func (jl *Journal) Accepted(key string, body []byte) error {
	return jl.append(journalRecord{Op: opAccepted, Key: key, Body: body}, true)
}

// Started marks the job as executing (best-effort, unsynced).
func (jl *Journal) Started(key string) error {
	return jl.append(journalRecord{Op: opStarted, Key: key}, false)
}

// Done / Failed / Cancelled mark terminal states (best-effort, unsynced):
// losing one re-runs an idempotent job on replay, nothing worse.
func (jl *Journal) Done(key string) error {
	return jl.append(journalRecord{Op: opDone, Key: key}, false)
}

func (jl *Journal) Failed(key string) error {
	return jl.append(journalRecord{Op: opFailed, Key: key}, false)
}

func (jl *Journal) Cancelled(key string) error {
	return jl.append(journalRecord{Op: opCancelled, Key: key}, false)
}

// JournalStats is the journal's observability snapshot (for /metrics and
// /v1/status).
type JournalStats struct {
	Records   uint64 `json:"records"`   // records appended this process
	Syncs     uint64 `json:"syncs"`     // fsyncs issued this process
	Recovered uint64 `json:"recovered"` // pending jobs found at open
	// Stored counts submissions acknowledged from the store without a
	// journal record; the server fills it in (the journal never sees them).
	Stored uint64 `json:"stored"`
}

func (jl *Journal) Stats() JournalStats {
	return JournalStats{Records: jl.records.Load(), Syncs: jl.syncs.Load(), Recovered: jl.recovered}
}

// Close syncs and closes the WAL.
func (jl *Journal) Close() error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	jl.f.Sync()
	return jl.f.Close()
}
