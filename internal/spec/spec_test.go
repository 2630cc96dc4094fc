package spec_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/spec"
	"repro/internal/warm"
	"repro/internal/workload"
)

// TestKeyStability pins the canonical keys of representative specs. These
// goldens are the spec identity contract: if any of them changes, every
// persisted artifact store and every labd client is silently invalidated —
// so a failure here must be a *deliberate* identity change (new field, new
// canonicalization), acknowledged by updating the goldens and bumping the
// affected codec versions.
func TestKeyStability(t *testing.T) {
	cfg := warm.DefaultConfig()
	golden := []struct {
		params spec.Params
		key    string
	}{
		{spec.SamplingParams{Bench: spec.BenchRef{Name: "mcf"}, Method: spec.MethodDeLorean, Cfg: cfg},
			"21f775a2fff8af101a5796432bc5aa6f73166b1d20f12f6aed3d66cdb809cac1"},
		{spec.SamplingParams{Bench: spec.BenchRef{Name: "mcf"}, Method: spec.MethodSMARTS, Cfg: cfg},
			"81fbe3417b271788dae296996da5fbecf842d68db8d555fd60107930a9f16e84"},
		{spec.DSESweepParams{Bench: spec.BenchRef{Name: "lbm"}, Sizes: []uint64{1 << 20, 8 << 20}, Cfg: cfg},
			"105f160e74e48024eae33e6e6d15cc99cddbe4044c0bce5ff0c149caa60c51d2"},
		{spec.CoRunProfileParamsFor(spec.BenchRef{Name: "omnetpp"}, cfg),
			"7efe4a78c83d94aa16ffab9775642cb2981fd49461ab623013273560e685b8b6"},
		{spec.CoRunCalParams{Bench: spec.BenchRef{Name: "omnetpp"}, Cfg: cfg},
			"0644ca02f45e751ff0d0dc44bf5e00643a404771d13cfc41100a8820bb478c13"},
		{spec.CoRunSimParams{Mix: "omnetpp+hmmer", Apps: []spec.BenchRef{{Name: "omnetpp"}, {Name: "hmmer"}}, Cfg: cfg},
			"1b1b71e43510a8a3bdd7bd2995fc63c9fc2ddd128282d8815ed047487f1e7fc1"},
	}
	for _, g := range golden {
		s, err := spec.New(g.params)
		if err != nil {
			t.Fatalf("%s: %v", g.params.Kind(), err)
		}
		if s.Key() != g.key {
			t.Errorf("%s key drifted:\n got  %s\n want %s\n(identity change: update goldens AND bump the codec version)",
				s.Kind(), s.Key(), g.key)
		}
	}
}

// TestKeyIdentity: every parameter that changes the experiment changes
// the key; parameters that don't (scheduling hints) don't.
func TestKeyIdentity(t *testing.T) {
	cfg := warm.DefaultConfig()
	base := spec.MustNew(spec.SamplingParams{Bench: spec.BenchRef{Name: "mcf"}, Method: spec.MethodSMARTS, Cfg: cfg})

	same := spec.MustNew(spec.SamplingParams{Bench: spec.BenchRef{Name: "mcf"}, Method: spec.MethodSMARTS, Cfg: cfg})
	if base.Key() != same.Key() {
		t.Error("identical specs must share a key")
	}
	if k := spec.MustNew(spec.SamplingParams{Bench: spec.BenchRef{Name: "mcf"}, Method: spec.MethodCoolSim, Cfg: cfg}).Key(); k == base.Key() {
		t.Error("method must be part of the key")
	}
	cfg2 := cfg
	cfg2.VicinityEvery++
	if k := spec.MustNew(spec.SamplingParams{Bench: spec.BenchRef{Name: "mcf"}, Method: spec.MethodSMARTS, Cfg: cfg2}).Key(); k == base.Key() {
		t.Error("config must be part of the key")
	}
	// Workload content is identity: the same bench name with an inline
	// profile that differs from the suite profile is a different key.
	custom := *workload.ByName("mcf")
	custom.Seed++
	if k := spec.MustNew(spec.SamplingParams{Bench: spec.Ref(&custom), Method: spec.MethodSMARTS, Cfg: cfg}).Key(); k == base.Key() {
		t.Error("inline profile content must be part of the key")
	}
	// A suite profile passed by value resolves to the compact by-name ref,
	// so it shares the key with the by-name spec.
	if k := spec.MustNew(spec.SamplingParams{Bench: spec.Ref(workload.ByName("mcf")), Method: spec.MethodSMARTS, Cfg: cfg}).Key(); k != base.Key() {
		t.Error("suite profiles must normalize to the by-name key")
	}
	// Workers is a scheduling hint, not identity.
	a := spec.MustNew(spec.DSESweepParams{Bench: spec.BenchRef{Name: "lbm"}, Sizes: []uint64{1 << 20}, Cfg: cfg, Workers: 1})
	b := spec.MustNew(spec.DSESweepParams{Bench: spec.BenchRef{Name: "lbm"}, Sizes: []uint64{1 << 20}, Cfg: cfg, Workers: 8})
	if a.Key() != b.Key() {
		t.Error("DSE worker bound must not change the key")
	}
}

// TestCanonicalizeOrderIndependence: the canonical encoding — and
// therefore the key — does not depend on JSON object key order (the
// property `%#v` hashing lacked: struct field reordering changed keys).
func TestCanonicalizeOrderIndependence(t *testing.T) {
	a, err := spec.Canonicalize([]byte(`{"b": 2, "a": {"y": 1e3, "x": [1, 2]}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Canonicalize([]byte(`{"a": {"x": [1, 2], "y": 1e3}, "b": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("canonical forms differ:\n%s\n%s", a, b)
	}
}

// TestSpecRoundTrip: every kind's params survive marshal → strict decode
// with full equality, and the decoded spec keeps the same key.
func TestSpecRoundTrip(t *testing.T) {
	cfg := warm.DefaultConfig()
	custom := *workload.ByName("mcf")
	custom.Name = "mcf-tweaked"
	custom.Seed = 999
	for _, p := range []spec.Params{
		spec.SamplingParams{Bench: spec.BenchRef{Name: "mcf"}, Method: spec.MethodDeLorean, Cfg: cfg},
		spec.SamplingParams{Bench: spec.Ref(&custom), Method: spec.MethodCoolSim, Cfg: cfg},
		spec.DSESweepParams{Bench: spec.BenchRef{Name: "lbm"}, Sizes: []uint64{1 << 20, 512 << 20}, Cfg: cfg},
		spec.CoRunProfileParamsFor(spec.BenchRef{Name: "omnetpp"}, cfg),
		spec.CoRunCalParams{Bench: spec.BenchRef{Name: "omnetpp"}, Cfg: cfg},
		spec.CoRunSimParams{Mix: "m", Apps: []spec.BenchRef{{Name: "omnetpp"}, {Name: "astar"}}, Cfg: cfg},
	} {
		s := spec.MustNew(p)
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%s: marshal: %v", s.Kind(), err)
		}
		d, err := spec.Decode(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", s.Kind(), err)
		}
		if !reflect.DeepEqual(d.Params(), s.Params()) {
			t.Errorf("%s: params did not round-trip:\n got  %+v\n want %+v", s.Kind(), d.Params(), s.Params())
		}
		if d.Key() != s.Key() {
			t.Errorf("%s: key changed across round-trip", s.Kind())
		}
	}
}

// TestDecodeStrict: unknown kinds, unknown fields (top-level and nested
// inside the config) and invalid params are all rejected at decode time.
func TestDecodeStrict(t *testing.T) {
	cfgJSON, _ := json.Marshal(warm.DefaultConfig())
	ok := `{"kind":"sampling","params":{"bench":{"name":"mcf"},"method":"smarts","cfg":` + string(cfgJSON) + `}}`
	if _, err := spec.Decode([]byte(ok)); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []struct {
		name, body string
	}{
		{"unknown kind", `{"kind":"nope","params":{}}`},
		{"unknown top field", strings.Replace(ok, `"method"`, `"bogus":1,"method"`, 1)},
		{"unknown cfg field", strings.Replace(ok, `"Regions"`, `"Bogus":1,"Regions"`, 1)},
		{"unknown method", strings.Replace(ok, `"smarts"`, `"magic"`, 1)},
		{"unknown bench", strings.Replace(ok, `"mcf"`, `"no-such-bench"`, 1)},
	}
	for _, tc := range bad {
		if _, err := spec.Decode([]byte(tc.body)); err == nil {
			t.Errorf("%s: decode accepted %s", tc.name, tc.body)
		}
	}
}

// TestEveryKindValidatesCPU: a CPU the timing core cannot build (a
// zero-entry ROB, an empty predictor table) is refused by every kind that
// carries a config — the sampling and DSE kinds through warm.Config's
// Validate, the four co-run kinds through cpu.Config's — so no client spec
// can panic a worker goroutine.
func TestEveryKindValidatesCPU(t *testing.T) {
	cfg := warm.DefaultConfig()
	apps := []spec.BenchRef{{Name: "omnetpp"}, {Name: "astar"}}
	kinds := func(cfg warm.Config) []spec.Params {
		return []spec.Params{
			spec.SamplingParams{Bench: spec.BenchRef{Name: "mcf"}, Method: spec.MethodDeLorean, Cfg: cfg},
			spec.DSESweepParams{Bench: spec.BenchRef{Name: "lbm"}, Sizes: []uint64{1 << 20}, Cfg: cfg},
			spec.CoRunProfileParams{Bench: spec.BenchRef{Name: "omnetpp"}, Cfg: cfg},
			spec.CoRunCalParams{Bench: spec.BenchRef{Name: "omnetpp"}, Cfg: cfg},
			spec.CoRunWarmParams{Mix: "m", Apps: apps, Cfg: cfg},
			spec.CoRunSimParams{Mix: "m", Apps: apps, Cfg: cfg},
		}
	}
	for _, p := range kinds(cfg) {
		if _, err := spec.New(p); err != nil {
			t.Fatalf("%s: default config rejected: %v", p.Kind(), err)
		}
	}
	for _, bad := range []struct {
		field string
		edit  func(*warm.Config)
	}{
		{"ROB", func(c *warm.Config) { c.CPU.ROB = 0 }},
		{"BTBEntries", func(c *warm.Config) { c.CPU.BP.BTBEntries = 0 }},
	} {
		broken := cfg
		bad.edit(&broken)
		for _, p := range kinds(broken) {
			if _, err := spec.New(p); err == nil || !strings.Contains(err.Error(), bad.field) {
				t.Errorf("%s with invalid %s: New() = %v, want an error naming it", p.Kind(), bad.field, err)
			}
		}
	}
}

// TestSeedConfig pins the per-experiment seed derivation: the formula is
// byte-compatible with the legacy runner's SeededCfg, which the checked-in
// golden figures depend on.
func TestSeedConfig(t *testing.T) {
	cfg := warm.DefaultConfig()
	got := spec.SeedConfig(cfg, "mcf", "coolsim", "")
	if got.Seed != 12904932975774678805 {
		t.Errorf("seed derivation drifted: got %d (golden figures are now stale)", got.Seed)
	}
	if spec.SeedConfig(cfg, "mcf", "coolsim", "").Seed != got.Seed {
		t.Error("seed derivation must be deterministic")
	}
	if spec.SeedConfig(cfg, "lbm", "coolsim", "").Seed == got.Seed {
		t.Error("different benchmarks must draw from different streams")
	}
	if got.Seed == cfg.Seed {
		t.Error("per-experiment seed should differ from the base seed")
	}
	rest := got
	rest.Seed = cfg.Seed
	if !reflect.DeepEqual(rest, cfg) {
		t.Error("SeedConfig must only touch the seed")
	}
}

// TestConfigRoundTrip: warm.Config and the co-run/DSE parameter structs
// are durable — they survive JSON with full equality and reject unknown
// fields on strict decode.
func TestConfigRoundTrip(t *testing.T) {
	cfg := warm.DefaultConfig()
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := warm.DecodeConfig(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, cfg) {
		t.Errorf("warm.Config did not round-trip:\n got  %+v\n want %+v", back, cfg)
	}
	if _, err := warm.DecodeConfig([]byte(`{"Regions": 1, "NotAField": 2}`)); err == nil {
		t.Error("DecodeConfig accepted an unknown field")
	}
}

// badProfiles are inline profiles the generator cannot build or run, each
// with the field the rejection must name: an overlay of a later stream
// and an empty stream list panicked in the executor, and n Rand streams
// cost n² words of generator bookkeeping per program.
func badProfiles() map[string]*workload.Profile {
	overlay, empty, rands := workload.Mcf(), workload.Mcf(), workload.Mcf()
	overlay.Streams = append([]workload.StreamSpec(nil), overlay.Streams...)
	overlay.Streams[0].OverlayOf = 2
	empty.Streams = nil
	rands.Streams = make([]workload.StreamSpec, 65)
	for i := range rands.Streams {
		rands.Streams[i] = workload.StreamSpec{Kind: workload.Rand, Weight: 1, PaperBytes: 1 << 20}
	}
	return map[string]*workload.Profile{"Streams[0].OverlayOf": overlay, "Streams: 0": empty, "Streams: 65": rands}
}

// TestDecodeRejectsBadInlineProfile: every kind refuses an inline profile
// that fails workload.Profile.Validate, naming the field, and so does
// decode.
func TestDecodeRejectsBadInlineProfile(t *testing.T) {
	cfg := warm.DefaultConfig()
	for field, prof := range badProfiles() {
		ref := spec.BenchRef{Name: "custom", Profile: prof}
		for _, p := range []spec.Params{
			spec.SamplingParams{Bench: ref, Method: spec.MethodDeLorean, Cfg: cfg},
			spec.DSESweepParams{Bench: ref, Sizes: []uint64{1 << 20}, Cfg: cfg},
			spec.CoRunProfileParams{Bench: ref, Cfg: cfg},
			spec.CoRunCalParams{Bench: ref, Cfg: cfg},
			spec.CoRunWarmParams{Mix: "m", Apps: []spec.BenchRef{{Name: "mcf"}, ref}, Cfg: cfg},
			spec.CoRunSimParams{Mix: "m", Apps: []spec.BenchRef{ref}, Cfg: cfg},
		} {
			if _, err := spec.New(p); err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("%s with %s: New() = %v, want an error naming it", p.Kind(), field, err)
			}
		}
		body, err := json.Marshal(map[string]any{"kind": spec.KindSampling,
			"params": spec.SamplingParams{Bench: ref, Method: spec.MethodDeLorean, Cfg: cfg}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := spec.Decode(body); err == nil {
			t.Errorf("decode accepted an inline profile with %s", field)
		}
	}
}

// TestListsBounded: a DSE sweep of more than spec.MaxListLen sizes and a
// co-run mix of more than spec.MaxListLen apps are refused; the bound
// itself is accepted.
func TestListsBounded(t *testing.T) {
	cfg := warm.DefaultConfig()
	sizes := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = 1 << 20
		}
		return out
	}
	apps := func(n int) []spec.BenchRef {
		out := make([]spec.BenchRef, n)
		for i := range out {
			out[i] = spec.BenchRef{Name: "mcf"}
		}
		return out
	}
	for _, tc := range []struct {
		field string
		mk    func(n int) spec.Params
	}{
		{"sizes", func(n int) spec.Params {
			return spec.DSESweepParams{Bench: spec.BenchRef{Name: "lbm"}, Sizes: sizes(n), Cfg: cfg}
		}},
		{"apps", func(n int) spec.Params { return spec.CoRunWarmParams{Mix: "m", Apps: apps(n), Cfg: cfg} }},
		{"apps", func(n int) spec.Params { return spec.CoRunSimParams{Mix: "m", Apps: apps(n), Cfg: cfg} }},
	} {
		if _, err := spec.New(tc.mk(spec.MaxListLen)); err != nil {
			t.Errorf("%s: %d entries rejected: %v", tc.field, spec.MaxListLen, err)
		}
		p := tc.mk(spec.MaxListLen + 1)
		if _, err := spec.New(p); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s with %d %s: New() = %v, want an error naming %s", p.Kind(), spec.MaxListLen+1, tc.field, err, tc.field)
		}
	}
}
