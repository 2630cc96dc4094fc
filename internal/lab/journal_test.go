package lab

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeJournal composes a raw WAL from records (white-box: the wire
// format is what OpenJournal must accept).
func writeJournal(t *testing.T, path string, recs ...journalRecord) {
	t.Helper()
	var raw []byte
	for _, r := range recs {
		raw = append(raw, encodeRecord(r)...)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func pendingKeys(p []PendingJob) []string {
	out := make([]string, len(p))
	for i, j := range p {
		out[i] = j.Key
	}
	return out
}

// TestJournalReplayPending: replay keeps exactly the jobs without a
// terminal record, in acceptance order, with their bodies.
func TestJournalReplayPending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	writeJournal(t, path,
		journalRecord{Op: opAccepted, Key: "a", Body: []byte(`{"spec":"a"}`)},
		journalRecord{Op: opStarted, Key: "a"},
		journalRecord{Op: opAccepted, Key: "b", Body: []byte(`{"spec":"b"}`)},
		journalRecord{Op: opStarted, Key: "b"},
		journalRecord{Op: opDone, Key: "b"},
		journalRecord{Op: opAccepted, Key: "c", Body: []byte(`{"spec":"c"}`)},
		journalRecord{Op: opCancelled, Key: "c"},
		journalRecord{Op: opAccepted, Key: "d", Body: []byte(`{"spec":"d"}`)},
	)
	jl, pending, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	if got := pendingKeys(pending); len(got) != 2 || got[0] != "a" || got[1] != "d" {
		t.Fatalf("pending = %v, want [a d]", got)
	}
	if string(pending[0].Body) != `{"spec":"a"}` {
		t.Errorf("pending body = %s, want the accepted submission", pending[0].Body)
	}
	if jl.Stats().Recovered != 2 {
		t.Errorf("recovered stat = %d, want 2", jl.Stats().Recovered)
	}
}

// TestJournalDuplicatesLatestWins: replay is a fold, not a set — repeated
// records for one key are fine and the last operation decides.
func TestJournalDuplicatesLatestWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	writeJournal(t, path,
		journalRecord{Op: opAccepted, Key: "a", Body: []byte(`{"v":1}`)},
		journalRecord{Op: opAccepted, Key: "a", Body: []byte(`{"v":2}`)},
		journalRecord{Op: opStarted, Key: "a"},
		journalRecord{Op: opStarted, Key: "a"},
		journalRecord{Op: opFailed, Key: "a"},
		journalRecord{Op: opAccepted, Key: "a", Body: []byte(`{"v":3}`)},
		journalRecord{Op: opAccepted, Key: "b", Body: []byte(`{"b":1}`)},
		journalRecord{Op: opDone, Key: "b"},
		journalRecord{Op: opDone, Key: "b"},
	)
	jl, pending, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	if got := pendingKeys(pending); len(got) != 1 || got[0] != "a" {
		t.Fatalf("pending = %v, want [a]", got)
	}
	if string(pending[0].Body) != `{"v":3}` {
		t.Errorf("body = %s, want the latest resubmission", pending[0].Body)
	}
}

// TestJournalTruncatedTail: a crash mid-append leaves a torn last line;
// replay must keep everything before it and drop the tail — and the
// compaction that follows must leave a clean, appendable journal.
func TestJournalTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	writeJournal(t, path,
		journalRecord{Op: opAccepted, Key: "a", Body: []byte(`{"spec":"a"}`)},
		journalRecord{Op: opAccepted, Key: "b", Body: []byte(`{"spec":"b"}`)},
		journalRecord{Op: opDone, Key: "b"},
	)
	// Torn tail: half a record, no trailing newline.
	full := encodeRecord(journalRecord{Op: opDone, Key: "a"})
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(full[:len(full)/2])
	f.Close()

	jl, pending, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// The torn "done a" never became durable, so a stays pending — the
	// at-least-once direction the WAL promises.
	if got := pendingKeys(pending); len(got) != 1 || got[0] != "a" {
		t.Fatalf("pending = %v, want [a]", got)
	}
	// The journal must be healthy after compaction: append a record,
	// reopen, and get a byte-exact replay.
	if err := jl.Finished("a", StateDone); err != nil {
		t.Fatal(err)
	}
	jl.Close()
	jl2, pending2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	if len(pending2) != 0 {
		t.Fatalf("pending after done = %v, want none", pendingKeys(pending2))
	}
}

// TestJournalCorruptLineStopsReplay: a flipped byte (CRC mismatch) in the
// middle of the WAL truncates replay at that line — corrupt history can
// lose later records (they re-run or re-submit), never produce garbage
// jobs.
func TestJournalCorruptLineStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	good := encodeRecord(journalRecord{Op: opAccepted, Key: "a", Body: []byte(`{"spec":"a"}`)})
	bad := encodeRecord(journalRecord{Op: opDone, Key: "a"})
	bad[12] ^= 0xff // corrupt the json; the CRC no longer matches
	after := encodeRecord(journalRecord{Op: opAccepted, Key: "c", Body: []byte(`{"spec":"c"}`)})
	raw := append(append(append([]byte{}, good...), bad...), after...)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	jl, pending, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	if got := pendingKeys(pending); len(got) != 1 || got[0] != "a" {
		t.Fatalf("pending = %v, want [a] (replay must stop at the corrupt line)", got)
	}
}

// TestJournalCompactsOnOpen: opening rewrites the WAL down to one
// accepted record per pending job, so the file stays proportional to live
// work, not to history.
func TestJournalCompactsOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	recs := []journalRecord{{Op: opAccepted, Key: "a", Body: []byte(`{"spec":"a"}`)}}
	for i := 0; i < 100; i++ {
		recs = append(recs,
			journalRecord{Op: opAccepted, Key: "x", Body: []byte(`{"spec":"x"}`)},
			journalRecord{Op: opStarted, Key: "x"},
			journalRecord{Op: opDone, Key: "x"},
		)
	}
	writeJournal(t, path, recs...)
	before, _ := os.Stat(path)

	jl, pending, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	if got := pendingKeys(pending); len(got) != 1 || got[0] != "a" {
		t.Fatalf("pending = %v, want [a]", got)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(encodeRecord(journalRecord{Op: opAccepted, Key: "a", Body: []byte(`{"spec":"a"}`)})))
	if after.Size() != want {
		t.Errorf("compacted size = %d, want %d (before: %d)", after.Size(), want, before.Size())
	}
	// A missing journal file is a valid (empty) journal.
	jl2, pending2, err := OpenJournal(filepath.Join(t.TempDir(), "fresh.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	if len(pending2) != 0 {
		t.Error("fresh journal reported pending jobs")
	}
}

// FuzzJournalReplay writes arbitrary bytes as the WAL. Replay must never
// panic; the pending keys it returns are unique and each carries a body;
// and compacting to that list and replaying again returns it unchanged,
// so a crash right after compaction re-arms exactly the same jobs. The
// seed corpus (testdata/fuzz) holds a clean accepted→started→done run, a
// torn tail, a CRC mismatch mid-file, duplicate accepted records for one
// key with different bodies, and bodies that are not in compacted form.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, wal []byte) {
		path := filepath.Join(t.TempDir(), "journal.wal")
		if err := os.WriteFile(path, wal, 0o644); err != nil {
			t.Fatal(err)
		}
		pending, err := replayJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool, len(pending))
		for _, p := range pending {
			if seen[p.Key] || len(p.Body) == 0 {
				t.Fatalf("pending %q: duplicate=%v, body %q", p.Key, seen[p.Key], p.Body)
			}
			seen[p.Key] = true
		}
		if err := compactJournal(path, pending); err != nil {
			t.Fatal(err)
		}
		again, err := replayJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, pending) {
			t.Fatalf("replay after compaction = %q, want %q", again, pending)
		}
	})
}
