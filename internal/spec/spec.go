// Package spec is the declarative experiment registry: every experiment
// the repository can run — a sampled-simulation run, a DSE fan-out, a
// co-run matrix cell — is a registered, named kind with a serializable
// parameter struct. A Spec (kind + params) replaces the anonymous
// runner.Job closures of the early drivers: it can be named, hashed,
// persisted, sent over HTTP to the lab service and re-executed bit-
// identically anywhere, because the parameters pin everything the
// experiment depends on (the workload content included — see BenchRef).
//
// Identity: a spec's key is the SHA-256 of its canonical encoding — the
// params' JSON re-marshalled with sorted object keys and exact number
// preservation — prefixed by the kind. Unlike the old `%#v`+FNV-64 job
// hash, the key is stable under struct field reordering, collision-
// resistant at any matrix scale, and documented by a golden-key
// regression test (spec_test.go).
//
// Seeding: per-experiment RNG streams derive from the (bench, method,
// extra) identity triple with the same FNV-64a/splitmix64 formula the
// legacy runner used, so results (and the checked-in golden figures)
// are unchanged by the refactor.
package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"sync"

	"repro/internal/artifact"
	"repro/internal/runner"
	"repro/internal/warm"
	"repro/internal/workload"
)

// Params is the serializable parameter struct of one experiment kind.
type Params interface {
	// Kind names the registered experiment kind.
	Kind() string
	// Identity returns the human-readable (bench, method, extra) triple
	// that labels progress events and derives the per-job RNG seed stream.
	Identity() (bench, method, extra string)
}

// KindInfo is one registered experiment kind.
type KindInfo struct {
	Name  string
	About string
	// New returns a pointer to a zero params struct for strict decoding.
	New func() any
	// Validate rejects malformed params (unknown method, unresolvable
	// benchmark, empty size list) at construction/decode time, so
	// executors cannot fail at run time. Optional.
	Validate func(p Params) error
	// Run executes the experiment; nested experiments go through sub.
	Run func(p Params, sub runner.Sub) (any, error)
	// Codec persists the result type in the artifact store.
	Codec artifact.Codec
}

var registry = map[string]KindInfo{}

// Register adds an experiment kind to the registry. The built-in kinds
// register themselves at init; additional kinds (service extensions,
// test doubles for the lab service's failure paths) may be registered
// before any engine or store is constructed. Duplicate names and
// incomplete definitions are programming errors.
func Register(k KindInfo) {
	if k.Name == "" || k.New == nil || k.Run == nil {
		panic("spec: incomplete kind registration")
	}
	if _, dup := registry[k.Name]; dup {
		panic("spec: duplicate kind " + k.Name)
	}
	registry[k.Name] = k
}

// register is the internal alias the built-in init registration uses.
func register(k KindInfo) { Register(k) }

// Kinds returns the registered kinds sorted by name.
func Kinds() []KindInfo {
	out := make([]KindInfo, 0, len(registry))
	for _, k := range registry {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// auxCodecs holds codecs for artifact kinds that are persisted but not
// runnable experiments — today the mid-run progress checkpoints. They ride
// in every store opened through Codecs/OpenStore so a progress artifact
// decodes on any node (the peer read-through tier included).
var auxCodecs = map[string]artifact.Codec{}

// registerAuxCodec adds a non-experiment artifact kind. Name collisions
// with experiment kinds or other aux codecs are programming errors.
func registerAuxCodec(kind string, c artifact.Codec) {
	if _, dup := registry[kind]; dup {
		panic("spec: aux codec collides with experiment kind " + kind)
	}
	if _, dup := auxCodecs[kind]; dup {
		panic("spec: duplicate aux codec " + kind)
	}
	auxCodecs[kind] = c
}

// Codecs returns the per-kind artifact codecs (experiment kinds plus
// auxiliary artifact kinds), ready for artifact.Open.
func Codecs() map[string]artifact.Codec {
	out := make(map[string]artifact.Codec, len(registry)+len(auxCodecs))
	for name, k := range registry {
		out[name] = k.Codec
	}
	for name, c := range auxCodecs {
		out[name] = c
	}
	return out
}

// OpenStore opens an artifact store wired with every registered kind's
// codec — the one-liner every CLI's -store flag goes through.
func OpenStore(dir string, maxBytes int64) (*artifact.Store, error) {
	return artifact.Open(dir, maxBytes, Codecs())
}

// Spec is one validated, keyed experiment. It implements runner.Spec.
type Spec struct {
	params Params
	key    string
}

// New validates the params against their registered kind and computes the
// canonical key.
func New(p Params) (Spec, error) {
	// Normalize pointer params to their value form so executors can
	// type-assert on the value type regardless of how the caller built them.
	if v := reflect.ValueOf(p); v.Kind() == reflect.Pointer && !v.IsNil() {
		p = v.Elem().Interface().(Params)
	}
	k, ok := registry[p.Kind()]
	if !ok {
		return Spec{}, fmt.Errorf("spec: unknown kind %q", p.Kind())
	}
	if k.Validate != nil {
		if err := k.Validate(p); err != nil {
			return Spec{}, fmt.Errorf("spec %s: %w", p.Kind(), err)
		}
	}
	key, err := canonicalKey(p)
	if err != nil {
		return Spec{}, fmt.Errorf("spec %s: %w", p.Kind(), err)
	}
	return Spec{params: p, key: key}, nil
}

// MustNew is New for driver-side specs whose params are built from
// validated flags and suite profiles; an error is a programming bug.
func MustNew(p Params) Spec {
	s, err := New(p)
	if err != nil {
		panic(err)
	}
	return s
}

// Job wraps params into a runner job (the common driver idiom).
func Job(p Params) runner.Job { return runner.Job{Spec: MustNew(p)} }

// Kind returns the spec's registered kind name.
func (s Spec) Kind() string { return s.params.Kind() }

// Key returns the canonical-encoding SHA-256 identity of the spec.
func (s Spec) Key() string { return s.key }

// Params returns the underlying parameter struct.
func (s Spec) Params() Params { return s.params }

// Identity returns the display/seed triple.
func (s Spec) Identity() (bench, method, extra string) { return s.params.Identity() }

// Run executes the spec via its kind's registered executor.
func (s Spec) Run(sub runner.Sub) (any, error) {
	return registry[s.params.Kind()].Run(s.params, sub)
}

// wire is the serialized form of a spec.
type wire struct {
	Kind   string          `json:"kind"`
	Params json.RawMessage `json:"params"`
}

// MarshalJSON encodes the spec as {"kind": ..., "params": {...}}.
func (s Spec) MarshalJSON() ([]byte, error) {
	raw, err := json.Marshal(s.params)
	if err != nil {
		return nil, err
	}
	return json.Marshal(wire{Kind: s.params.Kind(), Params: raw})
}

// Decode parses a serialized spec strictly: unknown kinds, unknown fields
// (at any nesting depth) and kind-level validation failures are all
// errors. This is the lab service's input gate.
func Decode(b []byte) (Spec, error) {
	var w wire
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return Spec{}, fmt.Errorf("spec: %w", err)
	}
	k, ok := registry[w.Kind]
	if !ok {
		return Spec{}, fmt.Errorf("spec: unknown kind %q", w.Kind)
	}
	ptr := k.New()
	pdec := json.NewDecoder(bytes.NewReader(w.Params))
	pdec.DisallowUnknownFields()
	if err := pdec.Decode(ptr); err != nil {
		return Spec{}, fmt.Errorf("spec %s: %w", w.Kind, err)
	}
	p, ok := reflect.ValueOf(ptr).Elem().Interface().(Params)
	if !ok {
		return Spec{}, fmt.Errorf("spec %s: params type does not implement Params", w.Kind)
	}
	return New(p)
}

// benchReferencer exposes a params type's workload references so
// canonicalKey can fold the *resolved* content of by-name suite
// references into the key. Without this, editing a registered profile
// would leave its by-name keys unchanged and a persistent store would
// silently serve artifacts computed from the old workload definition.
type benchReferencer interface {
	benchRefs() []BenchRef
}

// canonicalKey hashes the kind plus the canonical JSON encoding of the
// params: the struct's JSON is re-parsed with exact number preservation
// and re-marshalled, which sorts every object's keys — so the key depends
// only on field names and values, never on declaration order. Fields
// tagged `json:"-"` (scheduling hints) are excluded by construction.
// By-name workload references additionally contribute the referenced
// suite profile's content, so keys stay compact on the wire but still
// pin the actual workload (inline profiles are already in the params).
func canonicalKey(p Params) (string, error) {
	raw, err := json.Marshal(p)
	if err != nil {
		return "", err
	}
	canon, err := Canonicalize(raw)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(p.Kind()))
	h.Write([]byte{'\n'})
	h.Write(canon)
	if br, ok := p.(benchReferencer); ok {
		suite, err := suiteJSON()
		if err != nil {
			return "", err
		}
		for _, r := range br.benchRefs() {
			if r.Profile != nil {
				continue // inline content is already in canon
			}
			pj, ok := suite[r.Name]
			if !ok {
				return "", fmt.Errorf("unknown benchmark %q", r.Name)
			}
			fmt.Fprintf(h, "\nbench:%s=", r.Name)
			h.Write(pj)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// suiteJSON maps each suite benchmark's name to its profile's JSON
// encoding, the bytes canonicalKey folds in for a by-name reference.
// Suite profiles are code, so one encoding per process serves every key.
var suiteJSON = sync.OnceValues(func() (map[string][]byte, error) {
	out := make(map[string][]byte)
	for _, p := range workload.Benchmarks() {
		pj, err := json.Marshal(p)
		if err != nil {
			return nil, err
		}
		out[p.Name] = pj
	}
	return out, nil
})

// Canonicalize re-encodes a JSON document with sorted object keys and
// numbers preserved verbatim (json.Number round-trips the original text,
// so no float formatting drift can enter the hash).
func Canonicalize(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// SeedConfig derives the per-experiment RNG seed from the identity triple,
// bit-for-bit the legacy runner formula: every experiment draws from its
// own deterministic stream, so results do not depend on worker count or
// scheduling order, and probabilistic draws are decorrelated across
// benchmarks. Seed currently feeds only CoolSim's RSW oracle (the
// workload carries its own seed), and every driver keys CoolSim jobs the
// same way, so a given (bench, cfg) reports identical numbers in every
// figure, CLI and lab request.
func SeedConfig(cfg warm.Config, bench, method, extra string) warm.Config {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s", bench, method, extra)
	cfg.Seed = mix64(cfg.Seed ^ h.Sum64())
	return cfg
}

// mix64 is the splitmix64 finalizer, used to spread the identity hash.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// BenchRef names a workload: a suite benchmark by name, or an inline
// profile for workloads outside the suite (tests, custom labd requests).
// Inlining makes the spec key depend on the actual workload content —
// closing the legacy footgun where two different workloads sharing a
// bench name silently shared a cache entry.
type BenchRef struct {
	Name    string            `json:"name"`
	Profile *workload.Profile `json:"profile,omitempty"`
}

// Ref builds the canonical reference for a profile: suite benchmarks
// (profiles identical to their registered namesake) are referenced by
// name so keys stay compact and shareable; anything else is inlined.
func Ref(p *workload.Profile) BenchRef {
	if reg := workload.ByName(p.Name); reg != nil && reflect.DeepEqual(reg, p) {
		return BenchRef{Name: p.Name}
	}
	cp := *p
	return BenchRef{Name: p.Name, Profile: &cp}
}

// Resolve returns the referenced profile.
func (r BenchRef) Resolve() (*workload.Profile, error) {
	if r.Profile != nil {
		cp := *r.Profile
		if cp.Name == "" {
			cp.Name = r.Name
		}
		return &cp, nil
	}
	if p := workload.ByName(r.Name); p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("unknown benchmark %q (and no inline profile)", r.Name)
}

// validate resolves the reference and checks the profile it names at the
// spec's scale (workload.Profile.Validate), so an inline profile the
// generator cannot build or run cheaply is refused at decode instead of
// failing, or holding a worker, in the executor.
func (r BenchRef) validate(scale uint64) error {
	p, err := r.Resolve()
	if err != nil {
		return err
	}
	if err := p.Validate(scale); err != nil {
		return fmt.Errorf("bench %q: profile: %w", r.Name, err)
	}
	return nil
}
