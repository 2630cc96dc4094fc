package artifact_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
)

type payload struct {
	Name string  `json:"name"`
	Vals []int64 `json:"vals"`
	Pad  string  `json:"pad,omitempty"`
}

func codecs() map[string]artifact.Codec {
	return map[string]artifact.Codec{
		"test": {
			Version: 1,
			Encode:  func(v any) ([]byte, error) { return json.Marshal(v) },
			Decode: func(b []byte) (any, error) {
				var p payload
				if err := json.Unmarshal(b, &p); err != nil {
					return nil, err
				}
				return p, nil
			},
		},
	}
}

// key returns a syntactically plausible 64-hex key with a given prefix.
func key(s string) string {
	return (s + strings.Repeat("0", 64))[:64]
}

func TestRoundTrip(t *testing.T) {
	st, err := artifact.Open(t.TempDir(), 0, codecs())
	if err != nil {
		t.Fatal(err)
	}
	want := payload{Name: "a", Vals: []int64{1, 1 << 60, -7}}
	st.Save("test", key("aa"), want)
	got, ok := st.Load("test", key("aa"))
	if !ok {
		t.Fatal("fresh artifact not found")
	}
	if got.(payload).Name != "a" || got.(payload).Vals[1] != 1<<60 {
		t.Errorf("round-trip mismatch: %+v", got)
	}
	if _, ok := st.Load("test", key("bb")); ok {
		t.Error("absent key reported present")
	}
	if _, ok := st.Load("unregistered-kind", key("aa")); ok {
		t.Error("unregistered kind reported present")
	}
}

// TestPersistsAcrossOpens: a second Store over the same directory serves
// the first one's artifacts (the warm-cache property).
func TestPersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	st1, _ := artifact.Open(dir, 0, codecs())
	st1.Save("test", key("aa"), payload{Name: "persisted"})

	st2, err := artifact.Open(dir, 0, codecs())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := st2.Load("test", key("aa"))
	if !ok || got.(payload).Name != "persisted" {
		t.Fatalf("artifact lost across re-open: %v %v", got, ok)
	}
	if s := st2.Stats(); s.Artifacts != 1 || s.Bytes <= 0 {
		t.Errorf("re-opened index wrong: %+v", s)
	}
}

// TestCorruptionTolerated: truncated or bit-flipped artifacts read as
// misses (recompute), never as bad data or a crash, and are dropped so
// the next Save replaces them.
func TestCorruptionTolerated(t *testing.T) {
	dir := t.TempDir()
	st, _ := artifact.Open(dir, 0, codecs())
	st.Save("test", key("aa"), payload{Name: "x", Pad: strings.Repeat("p", 256)})

	var file string
	filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			file = p
		}
		return nil
	})
	if file == "" {
		t.Fatal("no artifact file written")
	}

	// Truncate: unparsable JSON.
	raw, _ := os.ReadFile(file)
	os.WriteFile(file, raw[:len(raw)/2], 0o644)
	if _, ok := st.Load("test", key("aa")); ok {
		t.Error("truncated artifact served")
	}
	if _, err := os.Stat(file); !os.IsNotExist(err) {
		t.Error("corrupt artifact not dropped")
	}

	// Valid JSON, wrong payload hash.
	st.Save("test", key("aa"), payload{Name: "x", Pad: strings.Repeat("p", 256)})
	raw, _ = os.ReadFile(file)
	os.WriteFile(file, []byte(strings.Replace(string(raw), `"name":"x"`, `"name":"y"`, 1)), 0o644)
	if _, ok := st.Load("test", key("aa")); ok {
		t.Error("hash-mismatched artifact served")
	}
	if st.Stats().Corrupt != 2 {
		t.Errorf("corrupt count = %d, want 2", st.Stats().Corrupt)
	}

	// Recompute path: a fresh Save works again.
	st.Save("test", key("aa"), payload{Name: "fresh"})
	if got, ok := st.Load("test", key("aa")); !ok || got.(payload).Name != "fresh" {
		t.Error("store unusable after corruption recovery")
	}
}

// TestCodecVersionGate: artifacts written under an older codec version
// are ignored (recomputed), not misdecoded.
func TestCodecVersionGate(t *testing.T) {
	dir := t.TempDir()
	st1, _ := artifact.Open(dir, 0, codecs())
	st1.Save("test", key("aa"), payload{Name: "v1"})

	c2 := codecs()
	c := c2["test"]
	c.Version = 2
	c2["test"] = c
	st2, _ := artifact.Open(dir, 0, c2)
	if _, ok := st2.Load("test", key("aa")); ok {
		t.Error("version-mismatched artifact served")
	}
}

// TestRawCodecVersionGate: Raw serves only payloads written by the
// currently registered codec version. The regression this pins: Raw used
// to skip the version check, so after a codec bump labd's
// /v1/artifacts/{key} handed out stale-format payloads that Load would
// have refused to decode.
func TestRawCodecVersionGate(t *testing.T) {
	dir := t.TempDir()
	st1, _ := artifact.Open(dir, 0, codecs())
	st1.Save("test", key("aa"), payload{Name: "v1"})
	if _, kind, ok := st1.Raw(key("aa")); !ok || kind != "test" {
		t.Fatalf("current-version Raw miss: kind=%q ok=%v", kind, ok)
	}

	c2 := codecs()
	c := c2["test"]
	c.Version = 2
	c2["test"] = c
	st2, _ := artifact.Open(dir, 0, c2)
	if _, _, ok := st2.Raw(key("aa")); ok {
		t.Error("version-mismatched payload served by Raw")
	}
	if got := st2.Stats().Corrupt; got != 1 {
		t.Errorf("corrupt count = %d, want 1", got)
	}
	// The stale artifact is dropped, so a fresh Save under the new version
	// serves again.
	st2.Save("test", key("aa"), payload{Name: "v2"})
	raw, _, ok := st2.Raw(key("aa"))
	if !ok || !strings.Contains(string(raw), `"v2"`) {
		t.Errorf("post-recompute Raw = %q ok=%v", raw, ok)
	}
}

// TestRawUnknownKindIsMiss: an envelope whose kind has no registered
// codec is a plain miss — possibly another deployment's artifact — and is
// neither counted corrupt nor deleted.
func TestRawUnknownKindIsMiss(t *testing.T) {
	dir := t.TempDir()
	st1, _ := artifact.Open(dir, 0, codecs())
	st1.Save("test", key("aa"), payload{Name: "x"})

	st2, _ := artifact.Open(dir, 0, map[string]artifact.Codec{})
	if _, _, ok := st2.Raw(key("aa")); ok {
		t.Error("unknown-kind payload served by Raw")
	}
	if got := st2.Stats().Corrupt; got != 0 {
		t.Errorf("unknown kind counted corrupt: %d", got)
	}
	// The artifact survives for a store that does know the kind.
	st3, _ := artifact.Open(dir, 0, codecs())
	if _, _, ok := st3.Raw(key("aa")); !ok {
		t.Error("unknown-kind miss deleted the artifact")
	}
}

// TestReopenEvictionOrderDeterministic: when every artifact carries the
// same mtime (coarse filesystem timestamps), the recovered LRU order must
// not depend on directory-iteration order — ties break by key, so two
// restarts of a bounded store evict the same artifacts.
func TestReopenEvictionOrderDeterministic(t *testing.T) {
	dir := t.TempDir()
	pad := strings.Repeat("x", 4096)
	st1, _ := artifact.Open(dir, 0, codecs())
	keys := []string{key("ee"), key("aa"), key("cc"), key("bb"), key("dd")}
	for _, k := range keys {
		st1.Save("test", k, payload{Name: k[:2], Pad: pad})
	}
	// Flatten recency: give every artifact the identical mtime.
	when := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			os.Chtimes(p, when, when)
		}
		return nil
	})

	// Re-open with a budget that forces evicting two artifacts: with all
	// mtimes equal, the key tie-break makes aa and bb the victims.
	perArtifact := st1.Stats().Bytes / int64(len(keys))
	st2, err := artifact.Open(dir, perArtifact*3+perArtifact/2, codecs())
	if err != nil {
		t.Fatal(err)
	}
	st2.Save("test", key("ff"), payload{Name: "ff", Pad: pad})
	for _, k := range []string{key("aa"), key("bb"), key("cc")} {
		if _, ok := st2.Load("test", k); ok {
			t.Errorf("artifact %s survived; want lowest keys evicted first on mtime ties", k[:2])
		}
	}
	for _, k := range []string{key("ee"), key("ff")} {
		if _, ok := st2.Load("test", k); !ok {
			t.Errorf("artifact %s evicted; want highest keys kept on mtime ties", k[:2])
		}
	}
}

// TestLRUEviction: the store stays within its byte budget by evicting the
// least recently used artifacts; a recently loaded artifact survives.
func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	pad := strings.Repeat("x", 4096)
	st, _ := artifact.Open(dir, 16<<10, codecs())
	st.Save("test", key("aa"), payload{Name: "a", Pad: pad})
	st.Save("test", key("bb"), payload{Name: "b", Pad: pad})
	st.Save("test", key("cc"), payload{Name: "c", Pad: pad})
	// Touch "aa" so "bb" is now the least recently used.
	if _, ok := st.Load("test", key("aa")); !ok {
		t.Fatal("aa missing before eviction")
	}
	st.Save("test", key("dd"), payload{Name: "d", Pad: pad})
	st.Save("test", key("ee"), payload{Name: "e", Pad: pad})

	s := st.Stats()
	if s.Bytes > s.MaxBytes {
		t.Errorf("store over budget: %d > %d", s.Bytes, s.MaxBytes)
	}
	if s.Evictions == 0 {
		t.Error("no evictions recorded")
	}
	if _, ok := st.Load("test", key("bb")); ok {
		t.Error("LRU victim bb survived")
	}
	if _, ok := st.Load("test", key("ee")); !ok {
		t.Error("most recent artifact ee evicted")
	}
}

// TestPinHoldsOutOfEviction: a pinned artifact is never an LRU victim —
// the store evicts younger ones around it — until its last pin is
// released. Pin refuses a key the store does not index, and DeleteKey
// still removes a pinned artifact.
func TestPinHoldsOutOfEviction(t *testing.T) {
	pad := strings.Repeat("x", 4096)
	st, _ := artifact.Open(t.TempDir(), 14<<10, codecs())
	st.Save("test", key("aa"), payload{Name: "a", Pad: pad})
	if st.Pin(key("ff")) {
		t.Fatal("Pin of an unindexed key succeeded")
	}
	if !st.Pin(key("aa")) || !st.Pin(key("aa")) {
		t.Fatal("Pin of an indexed key failed")
	}
	for _, k := range []string{"bb", "cc", "dd", "ee"} {
		st.Save("test", key(k), payload{Name: k, Pad: pad})
	}
	if _, ok := st.StatKey(key("aa")); !ok {
		t.Fatal("pinned LRU artifact aa was evicted")
	}
	if _, ok := st.StatKey(key("bb")); ok {
		t.Error("bb survived; want the oldest unpinned artifact evicted")
	}
	st.Unpin(key("aa"))
	st.Save("test", key("ab"), payload{Name: "ab", Pad: pad})
	if _, ok := st.StatKey(key("aa")); !ok {
		t.Fatal("aa evicted while one of its two pins is held")
	}
	st.Unpin(key("aa"))
	st.Save("test", key("ac"), payload{Name: "ac", Pad: pad})
	if _, ok := st.StatKey(key("aa")); ok {
		t.Error("aa survived after its last Unpin; want it evicted as the LRU artifact")
	}

	if !st.Pin(key("ac")) || !st.DeleteKey(key("ac")) {
		t.Fatal("DeleteKey of a pinned artifact failed")
	}
	if _, ok := st.StatKey(key("ac")); ok {
		t.Error("DeleteKey left a pinned artifact indexed")
	}
}
