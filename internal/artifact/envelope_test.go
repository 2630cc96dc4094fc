package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestEnvelopeEncodingMatchesJSONMarshal pins the hand-assembled envelope
// writer to encoding/json's output for the envelope struct: any byte of
// drift would fork the on-disk format between store versions.
func TestEnvelopeEncodingMatchesJSONMarshal(t *testing.T) {
	// Payloads are whatever codec.Encode produces — json.Marshal output,
	// which is compact and HTML-escaped. The third one pins that: <, > and
	// & arrive pre-escaped, so appending the payload verbatim matches what
	// re-marshalling the RawMessage would emit.
	mustMarshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	payloads := [][]byte{
		mustMarshal(map[string]any{"a": 1, "b": []int{1, 2, 3}}),
		mustMarshal(nil),
		mustMarshal("x<y&z>A"),
	}
	kinds := []string{"sampling", "dse-sweep", "kind with spaces", `weird"kind\<&>`, "ünïcode"}
	key := "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	for _, kind := range kinds {
		for _, payload := range payloads {
			sum := sha256.Sum256(payload)
			env := envelope{Schema: Schema, Kind: kind, Key: key,
				CodecVersion: 7, SHA256: hex.EncodeToString(sum[:]), Payload: payload}
			want, err := json.Marshal(&env)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			writeEnvelope(&buf, kind, key, 7, payload)
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("kind %q: envelope drifts from json.Marshal:\n got %s\nwant %s", kind, buf.Bytes(), want)
			}
		}
	}
}

// TestPayloadHashMatches covers the no-alloc hash verifier.
func TestPayloadHashMatches(t *testing.T) {
	p := []byte(`{"x":1}`)
	sum := sha256.Sum256(p)
	good := hex.EncodeToString(sum[:])
	if !payloadHashMatches(p, good) {
		t.Error("correct hash rejected")
	}
	if payloadHashMatches(p, good[:40]) {
		t.Error("truncated hash accepted")
	}
	bad := "0" + good[1:]
	if good[0] != '0' && payloadHashMatches(p, bad) {
		t.Error("wrong hash accepted")
	}
	if payloadHashMatches([]byte(`{"x":2}`), good) {
		t.Error("wrong payload accepted")
	}
}

// FuzzCheckEnvelope fuzzes the peer trust boundary: the bytes a peer
// serves for a key. CheckEnvelope must never panic; when it accepts, the
// envelope names the key and its sha256 field is the hex SHA-256 of its
// payload; and Store.Envelope over a DiskBlob holding the same bytes must
// accept exactly when it does. The seed corpus (testdata/fuzz) holds an
// honest envelope, a tampered payload, a wrong key, a wrong schema,
// truncated JSON and a non-hex sha256.
func FuzzCheckEnvelope(f *testing.F) {
	const key = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	b, err := NewDiskBlob(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	st, err := OpenBlob(b, 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		kind, _, err := CheckEnvelope(key, raw)
		if err == nil {
			var env struct {
				Key     string          `json:"key"`
				SHA256  string          `json:"sha256"`
				Payload json.RawMessage `json:"payload"`
			}
			if jerr := json.Unmarshal(raw, &env); jerr != nil {
				t.Fatalf("accepted bytes that do not parse: %v", jerr)
			}
			sum := sha256.Sum256(env.Payload)
			if env.Key != key || hex.EncodeToString(sum[:]) != env.SHA256 {
				t.Fatalf("accepted an envelope for key %q with sha256 %q over a payload hashing to %x", env.Key, env.SHA256, sum)
			}
		}
		if !b.Put(key, raw) {
			t.Fatal("blob put failed")
		}
		got, gotKind, ok := st.Envelope(key)
		if ok != (err == nil) {
			t.Fatalf("Store.Envelope ok=%v, CheckEnvelope err=%v", ok, err)
		}
		if ok && (!bytes.Equal(got, raw) || gotKind != kind) {
			t.Fatalf("Store.Envelope served kind %q and %d bytes, want kind %q and the %d stored bytes", gotKind, len(got), kind, len(raw))
		}
	})
}

// FuzzStoreRaw fuzzes the store's read entry points on the bytes a blob
// holds under a valid key: Store.Raw (the lab service's artifact route),
// Store.Envelope (its peer route), Store.Verify (its job path) and
// Store.Load (every value-wanting caller), each called on a fresh copy of
// the blob. None may panic.
//
// Raw either misses or returns exactly the payload and kind of an
// envelope that names the key, hashes to its sha256 field and belongs to
// a registered kind at that kind's codec version. A blob that fails those
// checks is dropped and counted as corrupt; an intact envelope of an
// unregistered kind is a plain miss and stays on disk.
//
// Envelope serves exactly the intact envelopes, whatever their kind and
// codec version, so it serves whenever Raw does; it returns the stored
// bytes, and drops and counts any other blob.
//
// Verify(kind, key) holds exactly when Raw serves an artifact of that
// kind, and whenever Load succeeds. Every Verify or Load that fails on a
// local blob drops it and counts it corrupt once; each call counts one
// load, and a miss one load miss. The one intended difference between
// the two: a payload that passes every gate but that the codec cannot
// decode verifies (Raw serves it too), while Load drops it and misses.
// Save never writes one; only a hand-written blob can hold it.
//
// Whichever entry point reads a blob first, the four in turn count a
// blob that fails the integrity checks corrupt exactly once, and any
// blob at most once.
//
// The seed corpus (testdata/fuzz) holds a valid envelope, a wrong schema,
// a key mismatch, a hash mismatch, an unregistered kind, a codec-version
// skew, truncated JSON and an empty file.
func FuzzStoreRaw(f *testing.F) {
	const key = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	codecs := map[string]Codec{"test": {Version: 1, Decode: func(b []byte) (any, error) {
		var v struct {
			Name string
			Vals []int
		}
		err := json.Unmarshal(b, &v)
		return v, err
	}}}
	b, err := NewDiskBlob(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	st, err := OpenBlob(b, 0, codecs)
	if err != nil {
		f.Fatal(err)
	}
	// read puts raw under key and runs one read path on it, reporting
	// whether it served, whether the blob is still stored, and the
	// change in the corrupt, load and load-miss counters.
	read := func(t *testing.T, raw []byte, path func() bool) (ok, kept bool, corrupt, loads, misses uint64) {
		if !b.Put(key, raw) {
			t.Fatal("blob put failed")
		}
		before := st.Stats()
		ok = path()
		_, kept = b.Get(key)
		after := st.Stats()
		return ok, kept, after.Corrupt - before.Corrupt, after.Loads - before.Loads, after.LoadMisses - before.LoadMisses
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var env envelope
		parsed := json.Unmarshal(raw, &env) == nil
		sum := sha256.Sum256(env.Payload)
		intact := parsed && env.Schema == Schema && env.Key == key && hex.EncodeToString(sum[:]) == env.SHA256
		codec, registered := codecs[env.Kind]
		var payload []byte
		var kind string
		ok, kept, dropped, _, _ := read(t, raw, func() (ok bool) {
			payload, kind, ok = st.Raw(key)
			return ok
		})
		switch {
		case intact && registered && env.CodecVersion == codec.Version:
			if !ok || !bytes.Equal(payload, env.Payload) || kind != env.Kind {
				t.Fatalf("Raw = (%d bytes, kind %q, %v) for a valid envelope of kind %q with %d payload bytes", len(payload), kind, ok, env.Kind, len(env.Payload))
			}
			if dropped != 0 || !kept {
				t.Fatalf("valid envelope counted corrupt %d times, still stored %v", dropped, kept)
			}
		case intact && !registered:
			if ok || dropped != 0 || !kept {
				t.Fatalf("envelope of unregistered kind %q: served %v, counted corrupt %d times, still stored %v", env.Kind, ok, dropped, kept)
			}
		default:
			if ok || dropped != 1 || kept {
				t.Fatalf("bad blob: served %v, counted corrupt %d times, still stored %v", ok, dropped, kept)
			}
		}

		var envRaw []byte
		var envKind string
		envOK, envKept, envDropped, _, _ := read(t, raw, func() (ok bool) {
			envRaw, envKind, ok = st.Envelope(key)
			return ok
		})
		if envOK != intact || (ok && !envOK) {
			t.Fatalf("Envelope = %v for an envelope intact %v that Raw served %v", envOK, intact, ok)
		}
		if envOK && (!bytes.Equal(envRaw, raw) || envKind != env.Kind || envDropped != 0 || !envKept) {
			t.Fatalf("Envelope served kind %q and %d bytes, counted corrupt %d times, still stored %v; want kind %q and the %d stored bytes", envKind, len(envRaw), envDropped, envKept, env.Kind, len(raw))
		}
		if !envOK && (envDropped != 1 || envKept) {
			t.Fatalf("Envelope of a bad blob counted corrupt %d times, still stored %v", envDropped, envKept)
		}

		served := ok && kind == "test"
		verified, vKept, vDropped, vLoads, vMisses := read(t, raw, func() bool { return st.Verify("test", key) })
		if verified != served {
			t.Fatalf("Verify = %v, but Raw served %v with kind %q", verified, ok, kind)
		}
		loaded, lKept, lDropped, lLoads, lMisses := read(t, raw, func() bool {
			_, ok := st.Load("test", key)
			return ok
		})
		_, decErr := codecs["test"].Decode(env.Payload)
		if loaded != (verified && decErr == nil) {
			t.Fatalf("Load = %v, Verify = %v, payload decodes: %v", loaded, verified, decErr == nil)
		}
		for _, c := range []struct {
			name                   string
			ok, kept               bool
			dropped, loads, misses uint64
		}{{"Verify", verified, vKept, vDropped, vLoads, vMisses}, {"Load", loaded, lKept, lDropped, lLoads, lMisses}} {
			wantDropped, wantMisses := uint64(1), uint64(1)
			if c.ok {
				wantDropped, wantMisses = 0, 0
			}
			if c.kept != c.ok || c.dropped != wantDropped || c.loads != 1 || c.misses != wantMisses {
				t.Fatalf("%s served %v: still stored %v, counted corrupt %d, loads %d, load misses %d", c.name, c.ok, c.kept, c.dropped, c.loads, c.misses)
			}
		}

		entries := []struct {
			name string
			read func()
		}{
			{"Raw", func() { st.Raw(key) }},
			{"Envelope", func() { st.Envelope(key) }},
			{"Verify", func() { st.Verify("test", key) }},
			{"Load", func() { st.Load("test", key) }},
		}
		for first := range entries {
			if !b.Put(key, raw) {
				t.Fatal("blob put failed")
			}
			before := st.Stats().Corrupt
			for i := range entries {
				entries[(first+i)%len(entries)].read()
			}
			if n := st.Stats().Corrupt - before; n > 1 || (!intact && n != 1) {
				t.Fatalf("%s first: a blob intact %v counted corrupt %d times", entries[first].name, intact, n)
			}
		}
	})
}
