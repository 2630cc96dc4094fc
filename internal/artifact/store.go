// Package artifact is the persistent tier of the experiment cache: a
// content-addressed store of experiment results, keyed by the spec's
// canonical SHA-256 (internal/spec) and written as versioned JSON
// envelopes. It is what turns the runner's in-process result cache into a
// durable one — a second run of `figures` or `dse` against a warm store
// executes zero experiments, and the lab service serves artifacts across
// process restarts.
//
// Store layers the semantics — envelope verification, codecs, LRU byte
// accounting — over a pluggable Blob byte tier (blob.go): local disk
// today, another backend by implementing Blob. A fleet node adds a
// read-only peer fetch from other labd nodes (peer.go) as a read-through
// fallback after a local miss.
//
// Properties the rest of the system relies on:
//
//   - integrity: every envelope records the SHA-256 of its payload; a
//     mismatch (bit rot, torn write that survived rename) reads as a miss,
//     never as silently wrong data — and the same gate is re-applied to
//     envelopes fetched from peers before they are trusted or persisted;
//   - atomic writes: payloads land via temp-file + rename, so a crashed
//     writer can leave stale temp files but never a half-written artifact
//     under a valid name;
//   - corruption tolerance: any unparsable, wrong-kind, wrong-version or
//     hash-mismatched artifact is treated as absent (and deleted
//     best-effort) — the runner recomputes, nothing crashes; a read that
//     fails for any reason but a missing blob is a miss that keeps it;
//   - versioned codecs: each experiment kind registers a codec with a
//     version; bumping the version orphans old artifacts instead of
//     decoding them wrongly;
//   - size-bounded LRU eviction: the store tracks per-artifact sizes and
//     recency (persisted across restarts via file mtimes) and evicts the
//     least recently used artifacts when a byte budget is exceeded.
package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strconv"
	"sync"
)

// Schema identifies the envelope layout; bump on incompatible change.
const Schema = "delorean-artifact/v1"

// Codec encodes and decodes one experiment kind's result type. Version is
// part of artifact compatibility: a stored artifact whose codec version
// differs from the registered one is ignored and recomputed.
type Codec struct {
	Version int
	Encode  func(v any) ([]byte, error)
	Decode  func(b []byte) (any, error)
}

// envelope is the stored form of one artifact.
type envelope struct {
	Schema       string          `json:"schema"`
	Kind         string          `json:"kind"`
	Key          string          `json:"key"`
	CodecVersion int             `json:"codec_version"`
	SHA256       string          `json:"sha256"` // hex SHA-256 of Payload
	Payload      json.RawMessage `json:"payload"`
}

// Stats is a snapshot of the store's operation counters. The JSON field
// names are a wire contract: lab.Server surfaces the struct verbatim
// under "store" on /v1/status, so operators can watch checkpoint pressure
// (evictions), cache effectiveness (hits vs misses) and integrity
// failures (corrupt) on a running service.
type Stats struct {
	// Loads counts Load and Verify calls, LoadMisses those that served
	// nothing.
	Loads      uint64 `json:"loads"`
	LoadMisses uint64 `json:"load_misses"`
	// Hits is derived (Loads - LoadMisses): loads served from a valid
	// artifact.
	Hits      uint64 `json:"hits"`
	Saves     uint64 `json:"saves"`
	Evictions uint64 `json:"evictions"`
	// Corrupt counts integrity failures on every read path: unparsable,
	// wrong-kind, wrong-version or hash-mismatched artifacts (each deleted
	// best-effort and recomputed; on Load and Verify also a LoadMiss
	// unless a peer serves the key).
	Corrupt uint64 `json:"corrupt"`
	// PeerHits counts loads that missed the local blob and were served by
	// fetching a verified envelope from a fleet peer (each also a Hit).
	PeerHits  uint64 `json:"peer_hits"`
	Artifacts int    `json:"artifacts"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
}

// KeyInfo describes one indexed artifact (StatKey). Kind may be empty
// for artifacts indexed from disk at Open but never yet loaded.
type KeyInfo struct {
	Key  string `json:"key"`
	Kind string `json:"kind,omitempty"`
	Size int64  `json:"size"`
}

// Store is a content-addressed artifact store over one Blob backend.
// All methods are safe for concurrent use. It implements runner.Store.
type Store struct {
	blob     Blob
	peers    *PeerBlob // optional read-through fallback tier; nil = none
	maxBytes int64     // <= 0: unbounded
	codecs   map[string]Codec

	mu    sync.Mutex
	index map[string]*entry
	pins  map[string]int // Pin counts: keys held out of LRU eviction
	total int64
	tick  uint64

	loads, loadMisses, saves, evictions, corrupt, peerHits uint64
}

type entry struct {
	kind string
	size int64
	used uint64 // recency tick; larger = more recent
}

// Open opens (creating if needed) a disk-backed store rooted at dir with
// the given byte budget (<= 0: unbounded) and per-kind codecs. It is
// OpenBlob over NewDiskBlob — the signature every existing call site
// uses.
func Open(dir string, maxBytes int64, codecs map[string]Codec) (*Store, error) {
	b, err := NewDiskBlob(dir)
	if err != nil {
		return nil, err
	}
	return OpenBlob(b, maxBytes, codecs)
}

// OpenBlob opens a store over an arbitrary Blob backend. Existing blobs
// are indexed via List; their recency order is recovered from the
// backend's modification times, which Load refreshes where the backend
// supports it.
func OpenBlob(b Blob, maxBytes int64, codecs map[string]Codec) (*Store, error) {
	s := &Store{blob: b, maxBytes: maxBytes, codecs: codecs,
		index: make(map[string]*entry), pins: make(map[string]int)}
	all := b.List()
	// Recency recovers from mtimes, which on coarse-grained filesystems
	// (or artifacts written in the same instant) collide; break ties by
	// key so the recovered LRU order — and therefore which artifacts a
	// bounded store evicts first after a restart — is deterministic
	// instead of enumeration order.
	sort.Slice(all, func(i, j int) bool {
		if !all[i].ModTime.Equal(all[j].ModTime) {
			return all[i].ModTime.Before(all[j].ModTime)
		}
		return all[i].Key < all[j].Key
	})
	for _, f := range all {
		s.tick++
		s.index[f.Key] = &entry{size: f.Size, used: s.tick}
		s.total += f.Size
	}
	return s, nil
}

// AttachPeers installs a peer-fetch fallback tier: a Load that misses
// both the runner's memory cache and the local blob is retried against
// the fleet before the caller recomputes, and a fetched envelope is
// persisted locally (read-through) so the next load — and this node's own
// peers — are served from disk. Attach before the store is shared.
func (s *Store) AttachPeers(p *PeerBlob) { s.peers = p }

// Peers returns the attached peer tier, or nil.
func (s *Store) Peers() *PeerBlob { return s.peers }

// Dir returns the root directory for disk-backed stores, "" otherwise.
func (s *Store) Dir() string {
	if d, ok := s.blob.(*DiskBlob); ok {
		return d.Dir()
	}
	return ""
}

// Stats returns a snapshot of the operation counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Loads: s.loads, LoadMisses: s.loadMisses,
		Hits: s.loads - s.loadMisses, Saves: s.saves,
		Evictions: s.evictions, Corrupt: s.corrupt, PeerHits: s.peerHits,
		Artifacts: len(s.index), Bytes: s.total, MaxBytes: s.maxBytes}
}

// validKey accepts exactly the hex SHA-256 form spec keys take. It is the
// store's path-safety gate: keys reach the filesystem verbatim, and the
// lab service forwards client-supplied keys, so anything else (path
// separators, "..", tmp- prefixes) must never touch a path.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// encodePool holds envelope-assembly buffers (Save): it runs once per
// artifact on the cold runner/labd path, and without reuse each save
// allocates (and garbage-collects) a payload-sized buffer.
var encodePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Load returns the decoded artifact for (kind, key), or a miss. It never
// errors: absent, corrupt and incompatible artifacts all read as misses
// (corrupt ones are deleted best-effort so they are recomputed once, not
// re-probed forever). A local miss falls through to the peer tier when
// one is attached. Blob reads and decoding run outside the store lock so
// a warm run's concurrent loads don't serialize on it.
func (s *Store) Load(kind, key string) (any, bool) {
	return s.load(key, readGate{kind: kind, decode: true})
}

// Verify reports whether the store holds a valid artifact for (kind,
// key): Load without the payload decode, for a caller that only needs to
// know the result exists. It applies Load's gates (schema, key, kind,
// codec version, payload SHA-256), drops and counts a corrupt blob, falls
// through to the peer tier and persists a peer's copy locally, and counts
// one load or miss exactly as Load does. The one difference: a payload
// that passes every gate but that the codec cannot decode verifies, where
// Load drops it and misses. Only a hand-written blob can be such a
// payload (Save stores what the codec encoded), and Raw serves it too.
func (s *Store) Verify(kind, key string) bool {
	_, ok := s.load(key, readGate{kind: kind})
	return ok
}

// load is Load and Verify: the local read, then the peer tier. Exactly
// one load (and at most one miss) is counted per call, whichever tier
// finishes it; a local integrity failure is counted corrupt when read
// drops it.
func (s *Store) load(key string, g readGate) (any, bool) {
	if _, ok := s.codecs[g.kind]; ok && validKey(key) { // codecs map is immutable after Open
		if _, val, _, ok := s.read(key, g); ok {
			return val, true
		}
		if val, ok := s.loadFromPeers(key, g); ok {
			return val, true
		}
	}
	s.mu.Lock()
	s.loads++
	s.loadMisses++
	s.mu.Unlock()
	return nil, false
}

// loadFromPeers fetches an envelope for a load whose local read missed.
// PeerBlob has verified its schema, key and payload hash; only the
// load's kind, codec-version and decode gate is left, and a failure there
// (version skew across the fleet) is a plain miss: the peer's copy may be
// valid for a newer deployment and is left alone. A hit is persisted
// locally (read-through) so the next load is served from disk.
func (s *Store) loadFromPeers(key string, g readGate) (any, bool) {
	if s.peers == nil {
		return nil, false
	}
	raw, env, ok := s.peers.get(key)
	if !ok {
		return nil, false
	}
	val, err := s.admit(env, g)
	if err != nil {
		return nil, false
	}
	persisted := s.blob.Put(key, raw)
	s.mu.Lock()
	s.loads++
	s.peerHits++
	if persisted {
		s.touchLocked(key, int64(len(raw)), env.Kind)
		s.evictLocked(key)
	}
	s.mu.Unlock()
	return val, true
}

// Raw returns the stored payload bytes for key without decoding (integrity
// still verified), plus the artifact's kind. The lab service serves
// artifacts through this path — key comes from the client, so the
// validKey gate here is load-bearing. Version compatibility is enforced
// the same way Load enforces it: a payload written by an older codec
// version must not be handed to clients as current, so a version mismatch
// reads as corrupt (dropped, recomputed). An envelope whose kind has no
// registered codec is merely a miss — the artifact may belong to a newer
// deployment and is left alone. Raw serves the local blob only: it is the
// peer-facing read path, and consulting peers here would let two nodes
// ping-pong a fetch between each other.
func (s *Store) Raw(key string) (payload []byte, kind string, ok bool) {
	if !validKey(key) {
		return nil, "", false
	}
	env, _, _, ok := s.read(key, readGate{})
	return env.Payload, env.Kind, ok
}

// Envelope returns the verified raw envelope bytes for key plus the
// artifact's kind: the serving side of the peer protocol
// (GET /v1/artifacts/{key}?envelope=1). Unlike Raw it does not require a
// registered codec or version match — the receiving node applies its own
// kind/version gate — so a node can relay artifacts written by a newer
// deployment. Schema, key and payload hash are still verified; a failure
// reads as corrupt (dropped) exactly like a local load would. Local blob
// only, for the same no-recursion reason as Raw.
func (s *Store) Envelope(key string) (raw []byte, kind string, ok bool) {
	if !validKey(key) {
		return nil, "", false
	}
	env, _, raw, ok := s.read(key, readGate{envelope: true})
	return raw, env.Kind, ok
}

// readGate is one read's policy on top of openEnvelope's integrity
// checks (schema, key, payload SHA-256). A read that fails it is corrupt:
// counted, and the blob dropped. The exception is Raw's unregistered kind,
// a plain miss.
type readGate struct {
	// kind is the kind Load or Verify asks for; a read that names one
	// counts in loads. Empty (Raw, Envelope) accepts any kind.
	kind string
	// decode: decode the payload with the kind's codec (Load).
	decode bool
	// envelope: integrity only, any kind at any codec version, and return
	// a copy of the envelope bytes (Envelope). Otherwise the envelope's
	// kind must be registered and at its codec's version.
	envelope bool
}

// errUnregistered marks an intact envelope of a kind this store has no
// codec for: a plain miss, not corruption.
var errUnregistered = errors.New("artifact: unregistered kind")

// read is the store's one read of a local blob: one pooled blob read, one
// openEnvelope, g's gate, then one locked section that either counts and
// drops a corrupt blob or touches the index, followed by one recency
// Touch. It returns the verified envelope (its payload is a copy, not the
// pooled buffer), the decoded value when g.decode, and a copy of the
// envelope bytes when g.envelope. A blob that is gone (evicted by a
// racing Save, or deleted externally) drops its index entry so its bytes
// stop counting toward the budget; any other read error is a transient
// miss that keeps the index entry and the blob.
func (s *Store) read(key string, g readGate) (env envelope, val any, raw []byte, ok bool) {
	buf, release, err := s.blob.GetPooled(key)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.mu.Lock()
			s.dropLocked(key)
			s.mu.Unlock()
		}
		return envelope{}, nil, nil, false
	}
	size := int64(len(buf))
	env, err = openEnvelope(key, buf)
	if err == nil {
		val, err = s.admit(env, g)
	}
	if err == nil && g.envelope {
		raw = bytes.Clone(buf)
	}
	release()
	if errors.Is(err, errUnregistered) {
		return envelope{}, nil, nil, false
	}

	s.mu.Lock()
	if err != nil {
		s.corrupt++
		s.dropLocked(key)
		s.mu.Unlock()
		return envelope{}, nil, nil, false
	}
	if g.kind != "" {
		s.loads++
	}
	s.touchLocked(key, size, env.Kind)
	s.mu.Unlock()
	s.blob.Touch(key)
	return env, val, raw, true
}

// admit applies g's kind, codec-version and decode policy to an envelope
// that passed openEnvelope, returning the decoded value when g.decode.
func (s *Store) admit(env envelope, g readGate) (any, error) {
	if g.envelope {
		return nil, nil
	}
	if g.kind != "" && env.Kind != g.kind {
		return nil, fmt.Errorf("kind %q, want %q", env.Kind, g.kind)
	}
	codec, ok := s.codecs[env.Kind]
	if !ok {
		return nil, errUnregistered
	}
	if env.CodecVersion != codec.Version {
		return nil, fmt.Errorf("codec version %d, want %d", env.CodecVersion, codec.Version)
	}
	if !g.decode {
		return nil, nil
	}
	return codec.Decode(env.Payload)
}

// DeleteKey removes the artifact for key; true if it was indexed.
func (s *Store) DeleteKey(key string) bool {
	if !validKey(key) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, existed := s.index[key]
	s.dropLocked(key)
	return existed
}

// StatKey reports an indexed artifact's size and kind without reading it.
func (s *Store) StatKey(key string) (KeyInfo, bool) {
	if !validKey(key) {
		return KeyInfo{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, ok := s.index[key]
	if !ok {
		return KeyInfo{}, false
	}
	return KeyInfo{Key: key, Kind: ent.kind, Size: ent.size}, true
}

// Pin reports whether key's artifact is indexed and, if it is, holds it
// out of LRU eviction until the matching Unpin (pins nest). A pin guards
// against the byte budget only: DeleteKey and the reconciliation of a
// missing or corrupt blob still remove a pinned artifact.
func (s *Store) Pin(key string) bool {
	if !validKey(key) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[key]; !ok {
		return false
	}
	s.pins[key]++
	return true
}

// Unpin releases one Pin of key.
func (s *Store) Unpin(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pins[key] <= 1 {
		delete(s.pins, key)
	} else {
		s.pins[key]--
	}
}

// openEnvelope parses raw and verifies it is a well-formed artifact
// envelope for key: schema, key match, payload SHA-256. It is the one
// integrity gate: Store.read applies it to every local blob and PeerBlob
// to every fetched envelope; readGate adds the kind and codec-version
// policy.
func openEnvelope(key string, raw []byte) (envelope, error) {
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return envelope{}, err
	}
	switch {
	case env.Schema != Schema:
		return envelope{}, fmt.Errorf("schema %q", env.Schema)
	case env.Key != key:
		return envelope{}, fmt.Errorf("key mismatch")
	case !payloadHashMatches(env.Payload, env.SHA256):
		return envelope{}, fmt.Errorf("payload hash mismatch")
	}
	return env, nil
}

// Save persists the artifact for (kind, key). Failures are swallowed: the
// store is a cache, and a result that could not be persisted is still
// returned to the caller by the runner.
func (s *Store) Save(kind, key string, val any) {
	codec, ok := s.codecs[kind]
	if !ok || !validKey(key) {
		return
	}
	payload, err := codec.Encode(val)
	if err != nil {
		return
	}
	// Assemble the envelope by hand into a pooled buffer. json.Marshal of
	// the envelope struct would re-scan and compact the payload RawMessage
	// (a validation pass plus a second payload-sized copy per save);
	// writing the five fixed fields directly produces the identical bytes
	// — pinned by TestEnvelopeEncodingMatchesJSONMarshal — for one buffer
	// reuse and no re-scan.
	buf := encodePool.Get().(*bytes.Buffer)
	defer func() { buf.Reset(); encodePool.Put(buf) }()
	buf.Reset()
	writeEnvelope(buf, kind, key, codec.Version, payload)
	size := int64(buf.Len())

	// All blob I/O happens outside the lock: concurrent workers persist
	// different keys in parallel (the runner's single-flight path
	// guarantees one writer per key within a process; across processes
	// the backend's atomic replace makes last-writer-wins safe). Put must
	// not retain buf.Bytes() — it goes back to the pool on return.
	if !s.blob.Put(key, buf.Bytes()) {
		return
	}

	s.mu.Lock()
	s.saves++
	s.touchLocked(key, size, kind)
	s.evictLocked(key)
	s.mu.Unlock()
}

// writeEnvelope writes the JSON form of envelope{...} into buf, matching
// encoding/json's output for the envelope struct byte for byte (field
// order, escaping) so artifacts written by either encoder are
// indistinguishable. The payload is appended verbatim, which relies on
// codecs emitting json.Marshal output: already compact and already
// HTML-escaped, i.e. exactly the bytes re-marshalling it as a RawMessage
// would embed.
func writeEnvelope(buf *bytes.Buffer, kind, key string, version int, payload []byte) {
	var scratch [2 * sha256.Size]byte
	buf.WriteString(`{"schema":"` + Schema + `","kind":`)
	writeJSONString(buf, kind)
	buf.WriteString(`,"key":"`)
	buf.WriteString(key) // validated hex: no escapable bytes
	buf.WriteString(`","codec_version":`)
	buf.Write(strconv.AppendInt(scratch[:0], int64(version), 10))
	buf.WriteString(`,"sha256":"`)
	sum := sha256.Sum256(payload)
	hex.Encode(scratch[:], sum[:])
	buf.Write(scratch[:])
	buf.WriteString(`","payload":`)
	buf.Write(payload)
	buf.WriteByte('}')
}

// writeJSONString quotes s the way encoding/json does for the plain
// identifiers codec kinds are; bytes that would need escaping (quotes,
// backslashes, control characters, non-ASCII) fall back to json.Marshal
// so exotic kinds stay correct.
func writeJSONString(buf *bytes.Buffer, s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s)
			buf.Write(b)
			return
		}
	}
	buf.WriteByte('"')
	buf.WriteString(s)
	buf.WriteByte('"')
}

// touchLocked records (or refreshes) key in the index and bumps its
// recency.
func (s *Store) touchLocked(key string, size int64, kind string) {
	s.tick++
	if ent, ok := s.index[key]; ok {
		s.total += size - ent.size
		ent.size, ent.kind, ent.used = size, kind, s.tick
	} else {
		s.index[key] = &entry{kind: kind, size: size, used: s.tick}
		s.total += size
	}
}

// evictLocked removes least-recently-used artifacts until the store fits
// its byte budget. The just-written key is exempt: an artifact larger than
// the whole budget is kept (alone) rather than thrashing. Pinned keys are
// exempt too, so the store may stay over budget until they are unpinned.
func (s *Store) evictLocked(justWritten string) {
	if s.maxBytes <= 0 {
		return
	}
	for s.total > s.maxBytes && len(s.index) > 1 {
		victim := ""
		var oldest uint64
		for k, e := range s.index {
			if k == justWritten || s.pins[k] > 0 {
				continue
			}
			if victim == "" || e.used < oldest {
				victim, oldest = k, e.used
			}
		}
		if victim == "" {
			return
		}
		s.dropLocked(victim)
		s.evictions++
	}
}

// dropLocked removes key from the index and deletes its blob best-effort
// (also called on misses to reconcile the index with a backend that lost
// the blob underneath us).
func (s *Store) dropLocked(key string) {
	if ent, ok := s.index[key]; ok {
		s.total -= ent.size
		delete(s.index, key)
	}
	s.blob.Delete(key)
}

// payloadHashMatches reports whether wantHex is the hex SHA-256 of
// payload, without allocating (the string(...) == comparison is the
// compiler-recognized no-copy form).
func payloadHashMatches(payload []byte, wantHex string) bool {
	if len(wantHex) != 2*sha256.Size {
		return false
	}
	sum := sha256.Sum256(payload)
	var buf [2 * sha256.Size]byte
	hex.Encode(buf[:], sum[:])
	return string(buf[:]) == wantHex
}
