package artifact_test

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/artifact"
)

// The blob conformance suite: every artifact.Blob backend must satisfy the
// same contract, because artifact.Store layers its semantics (codecs, LRU,
// integrity) on top of whichever backend it is given. The table runs the
// identical assertions against the local-disk backend and a quiet
// FaultBlob wrapped around one.
type confBackend struct {
	name string
	// open returns the blob under test and the authoritative on-disk
	// directory behind it (where the corruption tests flip bytes).
	open func(t *testing.T) (artifact.Blob, string)
}

func confBackends() []confBackend {
	return []confBackend{
		{name: "disk", open: func(t *testing.T) (artifact.Blob, string) {
			dir := t.TempDir()
			b, err := artifact.NewDiskBlob(dir)
			if err != nil {
				t.Fatal(err)
			}
			return b, dir
		}},
		{name: "fault-transparent", open: func(t *testing.T) (artifact.Blob, string) {
			// A FaultBlob with an empty schedule must be indistinguishable
			// from its inner backend — the wrapper earns its place in the
			// chaos tests only if it adds nothing when quiet.
			dir := t.TempDir()
			inner, err := artifact.NewDiskBlob(dir)
			if err != nil {
				t.Fatal(err)
			}
			return NewFaultBlob(inner, FaultConfig{Seed: 1}), dir
		}},
	}
}

// makeEnvelope produces valid envelope bytes for key through a scratch
// store, so blob conformance and peer-fetch data are real envelopes.
func makeEnvelope(t *testing.T, k, name string) []byte {
	t.Helper()
	st, err := artifact.Open(t.TempDir(), 0, codecs())
	if err != nil {
		t.Fatal(err)
	}
	st.Save("test", k, payload{Name: name, Pad: strings.Repeat("p", 128)})
	raw, _, ok := st.Envelope(k)
	if !ok {
		t.Fatal("envelope missing after save")
	}
	return raw
}

// corruptOnDisk flips a byte inside key's stored payload under dir,
// keeping the JSON valid but breaking the SHA-256 gate.
func corruptOnDisk(t *testing.T, dir, k string) {
	t.Helper()
	var file string
	filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.Contains(p, k) {
			file = p
		}
		return nil
	})
	if file == "" {
		t.Fatalf("no artifact file for %s under %s", k, dir)
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(raw, []byte("ppp"), []byte("pqp"), 1)
	if bytes.Equal(tampered, raw) {
		t.Fatal("corruption marker not found in envelope")
	}
	if err := os.WriteFile(file, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
}

// get reads k through the Blob's pooled read and returns a copy of its
// bytes. An absent blob must be an fs.ErrNotExist error, which is what
// tells the store to drop its index entry; any other error fails the test.
func get(t *testing.T, b artifact.Blob, k string) ([]byte, bool) {
	t.Helper()
	raw, release, err := b.GetPooled(k)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false
	}
	if err != nil {
		t.Fatalf("GetPooled(%s): %v, want the blob or fs.ErrNotExist", k[:4], err)
	}
	defer release()
	return bytes.Clone(raw), true
}

// TestBlobConformance: the raw Blob contract — Put/GetPooled/List/Delete
// over opaque keys — holds identically for every backend.
func TestBlobConformance(t *testing.T) {
	for _, be := range confBackends() {
		t.Run(be.name, func(t *testing.T) {
			b, _ := be.open(t)
			k := key("ab")
			env := makeEnvelope(t, k, "conform")

			if !b.Put(k, env) {
				t.Fatal("Put rejected a valid envelope")
			}
			got, ok := get(t, b, k)
			if !ok || !bytes.Equal(got, env) {
				t.Fatalf("GetPooled after Put: ok=%v, bytes match=%v", ok, bytes.Equal(got, env))
			}
			b.Touch(k)
			var listed bool
			for _, li := range b.List() {
				if li.Key == k {
					listed = true
					if li.Size != int64(len(env)) {
						t.Errorf("List size = %d, want %d", li.Size, len(env))
					}
				}
			}
			if !listed {
				t.Error("List does not include the stored key")
			}

			if _, ok := get(t, b, key("cd")); ok {
				t.Error("GetPooled of an absent key reported present")
			}
			if !b.Delete(k) {
				t.Error("Delete of a present key reported absent")
			}
			if _, ok := get(t, b, k); ok {
				t.Error("GetPooled served a deleted blob")
			}
			for _, li := range b.List() {
				if li.Key == k {
					t.Error("List includes a deleted blob")
				}
			}
			if b.Delete(k) {
				t.Error("second Delete reported present")
			}
		})
	}
}

// TestStoreConformance: a Store composed over either backend preserves
// the store semantics — round-trip, corruption reads as a miss and heals,
// LRU eviction order, and safety under concurrent Put/Get.
func TestStoreConformance(t *testing.T) {
	for _, be := range confBackends() {
		t.Run(be.name+"/round-trip", func(t *testing.T) {
			b, _ := be.open(t)
			st, err := artifact.OpenBlob(b, 0, codecs())
			if err != nil {
				t.Fatal(err)
			}
			st.Save("test", key("aa"), payload{Name: "rt", Vals: []int64{1, 2, 3}})
			got, ok := st.Load("test", key("aa"))
			if !ok || got.(payload).Name != "rt" {
				t.Fatalf("round-trip through %s backend: %v %v", be.name, got, ok)
			}
			if _, ok := st.Load("test", key("bb")); ok {
				t.Error("absent key reported present")
			}
		})

		t.Run(be.name+"/corruption-miss", func(t *testing.T) {
			b, dir := be.open(t)
			st, err := artifact.OpenBlob(b, 0, codecs())
			if err != nil {
				t.Fatal(err)
			}
			st.Save("test", key("aa"), payload{Name: "c", Pad: strings.Repeat("p", 256)})
			corruptOnDisk(t, dir, key("aa"))
			if _, ok := st.Load("test", key("aa")); ok {
				t.Fatal("hash-mismatched artifact served")
			}
			// Recompute path: a fresh Save replaces the corpse.
			st.Save("test", key("aa"), payload{Name: "healed"})
			if got, ok := st.Load("test", key("aa")); !ok || got.(payload).Name != "healed" {
				t.Error("store unusable after corruption recovery")
			}
		})

		t.Run(be.name+"/eviction-order", func(t *testing.T) {
			// Size the budget from a real envelope so exactly two artifacts
			// fit; the least-recently-touched of the first two must go.
			scratch, err := artifact.Open(t.TempDir(), 0, codecs())
			if err != nil {
				t.Fatal(err)
			}
			pad := strings.Repeat("p", 128)
			scratch.Save("test", key("aa"), payload{Name: "x", Pad: pad})
			one := scratch.Stats().Bytes
			if one <= 0 {
				t.Fatal("scratch save recorded no bytes")
			}

			b, _ := be.open(t)
			st, err := artifact.OpenBlob(b, 2*one+one/2, codecs())
			if err != nil {
				t.Fatal(err)
			}
			st.Save("test", key("aa"), payload{Name: "x", Pad: pad})
			st.Save("test", key("bb"), payload{Name: "x", Pad: pad})
			if _, ok := st.Load("test", key("aa")); !ok { // touch aa: bb becomes LRU
				t.Fatal("aa missing before eviction")
			}
			st.Save("test", key("cc"), payload{Name: "x", Pad: pad})

			if _, ok := st.Load("test", key("bb")); ok {
				t.Error("LRU artifact bb survived eviction")
			}
			if _, ok := get(t, b, key("bb")); ok {
				t.Errorf("%s backend still holds evicted blob", be.name)
			}
			for _, k := range []string{key("aa"), key("cc")} {
				if _, ok := st.Load("test", k); !ok {
					t.Errorf("recently-used artifact %s evicted", k[:2])
				}
			}
		})

		t.Run(be.name+"/concurrent", func(t *testing.T) {
			b, _ := be.open(t)
			st, err := artifact.OpenBlob(b, 0, codecs())
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 16; i++ {
						k := key(fmt.Sprintf("ab%02d", i%4))
						want := fmt.Sprintf("v%d", i%4)
						if (w+i)%2 == 0 {
							st.Save("test", k, payload{Name: want})
						} else if got, ok := st.Load("test", k); ok && got.(payload).Name != want {
							t.Errorf("concurrent read of %s: got %q, want %q", k[:4], got.(payload).Name, want)
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}
