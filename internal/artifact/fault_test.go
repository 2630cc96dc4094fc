package artifact_test

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/lab"
)

// faultStore builds a Store over a FaultBlob-wrapped disk backend.
func faultStore(t *testing.T, cfg FaultConfig) (*artifact.Store, *FaultBlob) {
	t.Helper()
	inner, err := artifact.NewDiskBlob(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fb := NewFaultBlob(inner, cfg)
	st, err := artifact.OpenBlob(fb, 0, codecs())
	if err != nil {
		t.Fatal(err)
	}
	return st, fb
}

// TestTornWriteReadsAsMiss: a Put that silently stores a prefix and lies
// about success must read back as an integrity miss — never as decoded
// junk — and a fresh Save must heal the key.
func TestTornWriteReadsAsMiss(t *testing.T) {
	st, fb := faultStore(t, FaultConfig{Seed: 7, TornWriteEvery: 1})
	st.Save("test", key("aa"), payload{Name: "torn", Pad: strings.Repeat("p", 256)})
	if fb.Stats().TornWrites != 1 {
		t.Fatalf("torn writes = %d, want 1", fb.Stats().TornWrites)
	}
	if _, ok := st.Load("test", key("aa")); ok {
		t.Fatal("torn artifact served as valid")
	}
	if st.Stats().Corrupt == 0 {
		t.Error("torn read not counted as an integrity failure")
	}

	// Heal: with the write fault quiet, the same key round-trips again.
	healed, _ := faultStore(t, FaultConfig{Seed: 7})
	healed.Save("test", key("aa"), payload{Name: "healed"})
	if got, ok := healed.Load("test", key("aa")); !ok || got.(payload).Name != "healed" {
		t.Error("store unusable after torn-write recovery")
	}
}

// TestCorruptedReadIsMiss: a single flipped byte on the read path trips
// the SHA-256 gate; the store reports a miss and counts the corruption.
func TestCorruptedReadIsMiss(t *testing.T) {
	st, fb := faultStore(t, FaultConfig{Seed: 42, CorruptEvery: 1})
	st.Save("test", key("ab"), payload{Name: "x", Pad: strings.Repeat("p", 128)})
	if _, ok := st.Load("test", key("ab")); ok {
		t.Fatal("corrupted read served as valid")
	}
	if fb.Stats().CorruptedReads == 0 {
		t.Error("no corruption was injected")
	}
	if st.Stats().Corrupt == 0 {
		t.Error("corrupted read not counted as an integrity failure")
	}
}

// TestErrorAfterN: reads fail hard after the scheduled count; the store
// degrades to misses, never errors.
func TestErrorAfterN(t *testing.T) {
	st, fb := faultStore(t, FaultConfig{Seed: 3, FailGetsAfter: 1})
	st.Save("test", key("ac"), payload{Name: "n"})
	if _, ok := st.Load("test", key("ac")); !ok {
		t.Fatal("first read should succeed")
	}
	if _, ok := st.Load("test", key("ac")); ok {
		t.Fatal("read past the failure threshold served data")
	}
	if fb.Stats().FailedGets == 0 {
		t.Error("no read failure was injected")
	}
}

// flakyBlob is a DiskBlob whose next `fails` pooled reads fail with an
// I/O error that is not fs.ErrNotExist: the EMFILE/EIO class a busy disk
// returns while the blob is still there.
type flakyBlob struct {
	*artifact.DiskBlob
	fails int
}

func (f *flakyBlob) GetPooled(key string) ([]byte, func(), error) {
	if f.fails > 0 {
		f.fails--
		return nil, nil, syscall.EIO
	}
	return f.DiskBlob.GetPooled(key)
}

// TestTransientReadKeepsArtifact: a read that fails with anything but
// fs.ErrNotExist is a miss that keeps both the blob and its index entry,
// so the next Load serves the (valid) artifact. Only a missing blob
// reconciles the index.
func TestTransientReadKeepsArtifact(t *testing.T) {
	dir := t.TempDir()
	disk, err := artifact.NewDiskBlob(dir)
	if err != nil {
		t.Fatal(err)
	}
	fb := &flakyBlob{DiskBlob: disk}
	st, err := artifact.OpenBlob(fb, 0, codecs())
	if err != nil {
		t.Fatal(err)
	}
	k := key("af")
	st.Save("test", k, payload{Name: "kept"})

	fb.fails = 1
	if _, ok := st.Load("test", k); ok {
		t.Fatal("Load served through a failed read")
	}
	if _, ok := st.StatKey(k); !ok {
		t.Error("a transient read error dropped the index entry")
	}
	if got, ok := st.Load("test", k); !ok || got.(payload).Name != "kept" {
		t.Fatalf("Load after the transient error = %v, %v; want the stored artifact", got, ok)
	}
	if s := st.Stats(); s.Corrupt != 0 || s.Loads != 2 || s.LoadMisses != 1 {
		t.Errorf("stats = %+v, want 2 loads, 1 miss, 0 corrupt", s)
	}

	// The blob really is gone: now the index reconciles.
	if !disk.Delete(k) {
		t.Fatal("blob missing before the external delete")
	}
	if _, ok := st.Load("test", k); ok {
		t.Fatal("Load served a deleted blob")
	}
	if _, ok := st.StatKey(k); ok {
		t.Error("a missing blob left its index entry")
	}
}

// TestInjectedLatency: the latency schedule actually delays operations
// (the knob the chaos harness uses to widen race windows).
func TestInjectedLatency(t *testing.T) {
	st, _ := faultStore(t, FaultConfig{Latency: 30 * time.Millisecond})
	start := time.Now()
	st.Save("test", key("ad"), payload{Name: "slow"})
	st.Load("test", key("ad"))
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("one put + one get took %v, want >= ~60ms of injected latency", elapsed)
	}
}

// TestPeerTransportFaults: a flaky wire under PeerBlob (transport errors
// after N requests) degrades to misses with the error counted — the
// "lying peer = miss, never wrong data" claim under injected faults.
func TestPeerTransportFaults(t *testing.T) {
	dir := t.TempDir()
	srvStore, err := artifact.Open(dir, 0, codecs())
	if err != nil {
		t.Fatal(err)
	}
	srvStore.Save("test", key("ae"), payload{Name: "remote"})
	eng, _, err := lab.NewEngine(1, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(lab.NewServer(eng, srvStore).Handler())
	defer ts.Close()

	ft := &FaultTransport{FailAfter: 1}
	pb := artifact.NewPeerBlob([]string{ts.URL}, artifact.PeerOptions{
		Timeout: 2 * time.Second, RetryBackoff: time.Millisecond,
		Client: &http.Client{Transport: ft},
	})

	if _, ok := pb.Get(key("ae")); !ok {
		t.Fatal("healthy transport: peer get should hit")
	}
	// Every request past the first fails at the transport; the retry also
	// fails, so the get must degrade to a miss with errors counted.
	if _, ok := pb.Get(key("ae")); ok {
		t.Fatal("peer get succeeded through a dead transport")
	}
	if pb.Stats().Errors == 0 {
		t.Error("transport faults not counted as peer fetch errors")
	}
	if total, failed := ft.Requests(); failed == 0 || total <= failed {
		t.Errorf("transport counters implausible: total=%d failed=%d", total, failed)
	}
}

// TestOpenCleansOrphanedTempFiles: a crash mid-Put leaves tmp-* litter
// (with or without the .json suffix); reopening the store removes it all,
// keeps real artifacts readable, and never touches foreign files.
func TestOpenCleansOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := artifact.Open(dir, 0, codecs())
	if err != nil {
		t.Fatal(err)
	}
	st.Save("test", key("aa"), payload{Name: "keep"})

	shard := filepath.Join(dir, key("aa")[:2])
	litter := []string{
		filepath.Join(dir, "tmp-123.json"),
		filepath.Join(dir, "tmp-456"), // no .json suffix: still a crashed writer's leavings
		filepath.Join(shard, "tmp-789.json"),
		filepath.Join(shard, "tmp-abc.partial"),
	}
	for _, p := range litter {
		if err := os.WriteFile(p, []byte("crashed writer junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	foreign := filepath.Join(dir, "journal.wal")
	if err := os.WriteFile(foreign, []byte("not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := artifact.Open(dir, 0, codecs())
	if err != nil {
		t.Fatalf("reopen over littered dir: %v", err)
	}
	if got, ok := st2.Load("test", key("aa")); !ok || got.(payload).Name != "keep" {
		t.Error("real artifact unreadable after cleanup")
	}
	for _, p := range litter {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("orphaned temp file %s survived reopen", p)
		}
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Errorf("foreign file deleted by cleanup: %v", err)
	}
}
