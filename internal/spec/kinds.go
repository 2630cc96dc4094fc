package spec

// The registered experiment kinds. Every evaluation the repository can
// produce is one of these six, parameterized:
//
//   sampling        one benchmark under one methodology (SMARTS, CoolSim,
//                   DeLorean) at one configuration — the unit of the
//                   benchmark × methodology matrix and of every figure
//                   sweep cell (a sweep cell is a sampling run with a
//                   varied config);
//   dse-sweep       one benchmark explored across many LLC sizes from a
//                   single shared warm-up (Fig. 13/14 and cmd/dse — a
//                   working-set curve is the MPKI view of this kind's
//                   result);
//   corun-profile   the size-independent solo profile of one app (exact
//                   reuse histogram, base CPI, penalty fit);
//   corun-calibrate the per-(app, LLC size) calibration completion; runs
//                   the app's corun-profile as a nested spec so the
//                   expensive profile is shared across sizes;
//   corun-warm      the warmed+aligned co-run engine state of one mix — a
//                   content-addressed checkpoint keyed by (mix, warm
//                   point) that corun-sim cells fork instead of
//                   re-executing the warm-up;
//   corun-sim       one simulated shared-LLC co-run matrix cell; nests its
//                   mix's corun-warm checkpoint and forks the measured
//                   window from it (bit-identical to the straight-
//                   through multiprog.CoSim.Run, the tests' oracle).

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/faultpoint"
	"repro/internal/multiprog"
	"repro/internal/runner"
	"repro/internal/warm"
	"repro/internal/workload"
)

// cancelPoll adapts the executing job's context into the engines' Cancel
// hook: a cheap non-blocking poll the region/quantum loops call between
// work units. For an unbound context (driver CLIs, RunMatrix) Done() is a
// nil channel and the poll is always false.
func cancelPoll(ctx context.Context) func() bool {
	done := ctx.Done()
	if done == nil {
		return nil
	}
	return func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

// ctxErr returns the sub context's error, which executors consult after a
// cancellable engine run: a cancelled run returned a partial result that
// must be discarded (reported as the context's error, never cached).
func ctxErr(sub runner.Sub) error { return sub.Context().Err() }

// Registered kind names.
const (
	KindSampling       = "sampling"
	KindDSESweep       = "dse-sweep"
	KindCoRunProfile   = "corun-profile"
	KindCoRunCalibrate = "corun-calibrate"
	KindCoRunWarm      = "corun-warm"
	KindCoRunSim       = "corun-sim"
)

// Sampling methodology names.
const (
	MethodSMARTS   = "smarts"
	MethodCoolSim  = "coolsim"
	MethodDeLorean = "delorean"
)

// jsonCodec builds the standard artifact codec for result type T.
func jsonCodec[T any](version int) artifact.Codec {
	return artifact.Codec{
		Version: version,
		Encode:  func(v any) ([]byte, error) { return json.Marshal(v) },
		Decode: func(b []byte) (any, error) {
			var out T
			if err := json.Unmarshal(b, &out); err != nil {
				return nil, err
			}
			return out, nil
		},
	}
}

// ---------------------------------------------------------------- sampling

// SamplingParams evaluates one benchmark under one methodology.
type SamplingParams struct {
	Bench  BenchRef    `json:"bench"`
	Method string      `json:"method"` // smarts | coolsim | delorean
	Cfg    warm.Config `json:"cfg"`
}

func (SamplingParams) Kind() string { return KindSampling }

func (p SamplingParams) Identity() (bench, method, extra string) {
	return p.Bench.Name, p.Method, ""
}

func (p SamplingParams) benchRefs() []BenchRef { return []BenchRef{p.Bench} }

// samplingArtifact wraps the method-dependent result type so one codec
// covers the kind: SMARTS/CoolSim produce *warm.Result, DeLorean the
// extended *core.Result with per-pass ledgers.
type samplingArtifact struct {
	Method   string       `json:"method"`
	Warm     *warm.Result `json:"warm,omitempty"`
	DeLorean *core.Result `json:"delorean,omitempty"`
}

func runSampling(p Params, sub runner.Sub) (any, error) {
	sp := p.(SamplingParams)
	prof, err := sp.Bench.Resolve()
	if err != nil {
		return nil, err
	}
	bench, method, extra := sp.Identity()
	cfg := SeedConfig(sp.Cfg, bench, method, extra)
	cfg.Cancel = cancelPoll(sub.Context())
	var res any
	switch sp.Method {
	case MethodSMARTS:
		res = warm.RunSMARTS(prof, cfg)
	case MethodCoolSim:
		res = warm.RunCoolSim(prof, cfg)
	case MethodDeLorean:
		res = core.Run(prof, cfg)
	default:
		return nil, fmt.Errorf("unknown method %q", sp.Method)
	}
	if err := ctxErr(sub); err != nil {
		return nil, err // cancelled mid-run: discard the partial result
	}
	return res, nil
}

// ---------------------------------------------------------------- dse-sweep

// DSESweepParams explores one benchmark across paper-scale LLC sizes from
// a single shared warm-up. Workers is a scheduling hint, not identity: any
// bound produces identical results (dse.RunParallel's contract), so it is
// excluded from serialization and the key. Because it never rides the
// wire, a decoded spec always has Workers == 0, which executes the
// Analyst fan-out serially — the lab service's -workers gate bounds
// concurrency across specs, so a spec must not fan out on its own; local
// drivers that want an inner fan-out set Workers explicitly.
type DSESweepParams struct {
	Bench   BenchRef    `json:"bench"`
	Sizes   []uint64    `json:"sizes"` // paper-scale LLC bytes
	Cfg     warm.Config `json:"cfg"`
	Workers int         `json:"-"`
}

func (DSESweepParams) Kind() string { return KindDSESweep }

func (p DSESweepParams) Identity() (bench, method, extra string) {
	return p.Bench.Name, "dse", fmt.Sprint(p.Sizes)
}

func (p DSESweepParams) benchRefs() []BenchRef { return []BenchRef{p.Bench} }

func runDSESweep(p Params, sub runner.Sub) (any, error) {
	sp := p.(DSESweepParams)
	prof, err := sp.Bench.Resolve()
	if err != nil {
		return nil, err
	}
	bench, method, extra := sp.Identity()
	cfg := SeedConfig(sp.Cfg, bench, method, extra)
	cfg.Cancel = cancelPoll(sub.Context())
	workers := sp.Workers
	if workers <= 0 {
		workers = 1 // see DSESweepParams.Workers: decoded specs never fan out
	}
	res := dse.RunParallel(prof, cfg, sp.Sizes, workers)
	if err := ctxErr(sub); err != nil {
		return nil, err // cancelled mid-run: discard the partial result
	}
	return res, nil
}

// ------------------------------------------------------------ corun kinds

// CoRunProfileParams collects one app's size-independent solo profile.
// Build it with CoRunProfileParamsFor so the LLC axis is normalized and
// every size's calibration shares one profile spec.
type CoRunProfileParams struct {
	Bench BenchRef    `json:"bench"`
	Cfg   warm.Config `json:"cfg"`
}

func (CoRunProfileParams) Kind() string { return KindCoRunProfile }

func (p CoRunProfileParams) Identity() (bench, method, extra string) {
	return p.Bench.Name, "corun-profile", ""
}

func (p CoRunProfileParams) benchRefs() []BenchRef { return []BenchRef{p.Bench} }

// CoRunProfileParamsFor returns the canonical profile spec for one app:
// the solo profile does not depend on the target LLC size (its reference
// simulations pick their own footprint-relative sizes), so the LLC axis
// is pinned to the paper default — one profile per (app, machine config),
// shared by every matrix cell.
func CoRunProfileParamsFor(app BenchRef, base warm.Config) CoRunProfileParams {
	base.LLCPaperBytes = warm.DefaultConfig().LLCPaperBytes
	return CoRunProfileParams{Bench: app, Cfg: base}
}

func runCoRunProfile(p Params, sub runner.Sub) (any, error) {
	sp := p.(CoRunProfileParams)
	prof, err := sp.Bench.Resolve()
	if err != nil {
		return nil, err
	}
	cs := multiprog.CoSimFromWarm(sp.Cfg, sp.Cfg.LLCPaperBytes)
	cs.Cancel = cancelPoll(sub.Context())
	res := multiprog.ProfileSolo(prof, cs)
	if err := ctxErr(sub); err != nil {
		return nil, err // cancelled mid-run: discard the partial result
	}
	return res, nil
}

// CoRunCalParams completes one app's calibration at the target LLC size
// (Cfg.LLCPaperBytes). The app's corun-profile runs as a nested spec, so
// however many sizes are swept, the profile executes once per app.
type CoRunCalParams struct {
	Bench BenchRef    `json:"bench"`
	Cfg   warm.Config `json:"cfg"`
}

func (CoRunCalParams) Kind() string { return KindCoRunCalibrate }

func (p CoRunCalParams) Identity() (bench, method, extra string) {
	return p.Bench.Name, "corun-cal", strconv.FormatUint(p.Cfg.LLCPaperBytes, 10)
}

func (p CoRunCalParams) benchRefs() []BenchRef { return []BenchRef{p.Bench} }

func runCoRunCalibrate(p Params, sub runner.Sub) (any, error) {
	sp := p.(CoRunCalParams)
	prof, err := New(CoRunProfileParamsFor(sp.Bench, sp.Cfg))
	if err != nil {
		return nil, err
	}
	v, err := sub.RunSpec(prof)
	if err != nil {
		return nil, err
	}
	cs := multiprog.CoSimFromWarm(sp.Cfg, sp.Cfg.LLCPaperBytes)
	cs.Cancel = cancelPoll(sub.Context())
	res := v.(multiprog.SoloProfile).Calibrate(cs)
	if err := ctxErr(sub); err != nil {
		return nil, err // cancelled mid-run: discard the partial result
	}
	return res, nil
}

// CoRunWarmParams produces the warmed+aligned co-run engine state for one
// mix: a *multiprog.CoSimCheckpoint. Its identity is the warm point — mix,
// apps, machine config. CoRunSimParams carries the same fields and
// multiprog.CoSimFromWarm takes the measured window from
// DefaultCoSimConfig, so each corun-sim cell has exactly one warm key and
// no two cells share a checkpoint. What the fork buys is a re-run of a
// cell whose corun-sim artifact is gone, and a resume after a crash that
// comes before the cell's first progress checkpoint: both fork the stored
// checkpoint instead of warming up again.
type CoRunWarmParams struct {
	Mix  string      `json:"mix"`
	Apps []BenchRef  `json:"apps"`
	Cfg  warm.Config `json:"cfg"`
}

func (CoRunWarmParams) Kind() string { return KindCoRunWarm }

func (p CoRunWarmParams) Identity() (bench, method, extra string) {
	return p.Mix, "corun-warm", strconv.FormatUint(p.Cfg.LLCPaperBytes, 10)
}

func (p CoRunWarmParams) benchRefs() []BenchRef { return append([]BenchRef(nil), p.Apps...) }

func runCoRunWarm(p Params, sub runner.Sub) (any, error) {
	sp := p.(CoRunWarmParams)
	profs, err := resolveAll(sp.Apps)
	if err != nil {
		return nil, err
	}
	cfg := multiprog.CoSimFromWarm(sp.Cfg, sp.Cfg.LLCPaperBytes)
	cfg.Cancel = cancelPoll(sub.Context())
	cs := multiprog.NewCoSim(profs, cfg)
	cs.WarmAlign()
	if err := ctxErr(sub); err != nil {
		return nil, err // cancelled mid-warm-up: never checkpoint partial state
	}
	return cs.Checkpoint(), nil
}

// CoRunSimParams simulates one shared-LLC co-run matrix cell: the named
// mix of apps on private-L1 cores sharing an LLC of Cfg.LLCPaperBytes.
// The cell forks its measured window from its mix's corun-warm
// checkpoint; the straight-through run (multiprog.CoSim.Run) is the test
// oracle it matches bit for bit (TestForkedRunMatchesStraight).
type CoRunSimParams struct {
	Mix  string      `json:"mix"` // display name of the scenario
	Apps []BenchRef  `json:"apps"`
	Cfg  warm.Config `json:"cfg"`
}

func (CoRunSimParams) Kind() string { return KindCoRunSim }

func (p CoRunSimParams) Identity() (bench, method, extra string) {
	return p.Mix, "corun-sim", strconv.FormatUint(p.Cfg.LLCPaperBytes, 10)
}

func (p CoRunSimParams) benchRefs() []BenchRef { return append([]BenchRef(nil), p.Apps...) }

func runCoRunSim(p Params, sub runner.Sub) (any, error) {
	sp := p.(CoRunSimParams)
	cfg := multiprog.CoSimFromWarm(sp.Cfg, sp.Cfg.LLCPaperBytes)
	cfg.Cancel = cancelPoll(sub.Context())

	// Mid-run resume (DESIGN.md §14): with a store attached, the measured
	// window periodically persists a progress checkpoint under a key
	// derived from this cell's identity, and a previous execution's
	// checkpoint — crashed, cancelled, or written by another fleet node
	// that ran the same cell — seeds the engine here instead of re-running
	// the paid-for window prefix. A resumed engine matches a forked one
	// because the checkpoint carries the complete engine state.
	st := subStore(sub)
	var pkey string
	if st != nil && ProgressEveryQuanta > 0 {
		if k, err := canonicalKey(sp); err == nil {
			pkey = ProgressKey(k)
		}
	}
	var cs *multiprog.CoSim
	if pkey != "" {
		if v, ok := st.Load(KindCoRunProgress, pkey); ok {
			if pc, ok := v.(*multiprog.ProgressCheckpoint); ok {
				if resumed, err := multiprog.NewCoSimFromProgress(pc); err == nil {
					// The checkpoint pins state; the measured horizon and
					// the Cancel hook belong to this execution (same rule
					// as the fork below).
					resumed.Cfg.MeasureCycles = cfg.MeasureCycles
					resumed.Cfg.Cancel = cfg.Cancel
					cs = resumed
				}
			}
		}
	}

	if cs == nil {
		// Not resumed: the warm-up runs (or is served from cache/store) as
		// a nested corun-warm spec, then this cell forks its measured
		// window from the checkpoint, so a re-run of the cell pays the
		// warm-up only when its checkpoint is gone too.
		wsp, err := New(CoRunWarmParams{Mix: sp.Mix, Apps: sp.Apps, Cfg: sp.Cfg})
		if err != nil {
			return nil, err
		}
		v, err := sub.RunSpec(wsp)
		if err != nil {
			return nil, err
		}
		cs, err = multiprog.NewCoSimFromCheckpoint(v.(*multiprog.CoSimCheckpoint))
		if err != nil {
			return nil, err
		}
		// The checkpoint pins the warmed state; the measured horizon
		// belongs to this cell (today they always agree — both derive from
		// the same warm.Config — but the checkpoint's key is the warm
		// point, so the horizon must come from the consumer). Cancel rides
		// along the same way: a decoded checkpoint never carries one.
		cs.Cfg.MeasureCycles = cfg.MeasureCycles
		cs.Cfg.Cancel = cfg.Cancel
	}

	if pkey != "" {
		cs.SetProgress(ProgressEveryQuanta, func(pc *multiprog.ProgressCheckpoint) {
			st.Save(KindCoRunProgress, pkey, pc)
			faultpoint.Hit("spec.progress") // chaos: crash mid-measured-run, after a durable checkpoint
		})
	}
	res := cs.RunMeasured()
	if err := ctxErr(sub); err != nil {
		// Cancelled mid-run: discard the partial result. The progress trail
		// stays — it is exactly what the next execution resumes from.
		return nil, err
	}
	if pkey != "" {
		st.DeleteKey(pkey) // the finished artifact supersedes the progress trail
	}
	return res, nil
}

func resolveAll(refs []BenchRef) ([]*workload.Profile, error) {
	out := make([]*workload.Profile, len(refs))
	for i, r := range refs {
		p, err := r.Resolve()
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// MaxListLen bounds a spec's per-entry lists, the DSE sweep's LLC sizes
// and a co-run mix's apps: each entry costs an engine, a program and
// detailed regions (a size) or a co-run core and its state (an app), and
// none of it is counted by warm.MaxRunInstr. The paper's sweep has 10
// sizes and the figures' mixes at most 3 apps.
const MaxListLen = 64

// validateCoRun is the co-run kinds' shared check: an app mix of 1 to
// MaxListLen apps, a CPU the timing core can build (cpu.Config.Validate),
// a scaled LLC within warm.MaxLLCBytes (warm.ValidateLLC) and valid
// benchmarks.
func validateCoRun(cfg warm.Config, apps []BenchRef) error {
	if n := len(apps); n == 0 || n > MaxListLen {
		return fmt.Errorf("apps: %d apps, want 1 to %d", n, MaxListLen)
	}
	if err := cfg.CPU.Validate(); err != nil {
		return fmt.Errorf("cfg: %w", err)
	}
	if err := warm.ValidateLLC(cfg.LLCPaperBytes, cfg.Scale); err != nil {
		return fmt.Errorf("cfg: LLCPaperBytes: %w", err)
	}
	for _, a := range apps {
		if err := a.validate(); err != nil {
			return err
		}
	}
	return nil
}

// ------------------------------------------------------------ registration

func init() {
	register(KindInfo{
		Name:  KindSampling,
		About: "one benchmark under one methodology (smarts|coolsim|delorean) at one config",
		New:   func() any { return new(SamplingParams) },
		Validate: func(p Params) error {
			sp := p.(SamplingParams)
			switch sp.Method {
			case MethodSMARTS, MethodCoolSim, MethodDeLorean:
			default:
				return fmt.Errorf("unknown method %q", sp.Method)
			}
			if err := sp.Cfg.Validate(); err != nil {
				return fmt.Errorf("cfg: %w", err)
			}
			return sp.Bench.validate()
		},
		Run: runSampling,
		Codec: artifact.Codec{
			Version: 1,
			Encode: func(v any) ([]byte, error) {
				switch r := v.(type) {
				case *core.Result:
					return json.Marshal(samplingArtifact{Method: MethodDeLorean, DeLorean: r})
				case *warm.Result:
					return json.Marshal(samplingArtifact{Method: r.Method, Warm: r})
				}
				return nil, fmt.Errorf("unexpected sampling result %T", v)
			},
			Decode: func(b []byte) (any, error) {
				var a samplingArtifact
				if err := json.Unmarshal(b, &a); err != nil {
					return nil, err
				}
				switch {
				case a.DeLorean != nil:
					return a.DeLorean, nil
				case a.Warm != nil:
					return a.Warm, nil
				}
				return nil, fmt.Errorf("empty sampling artifact")
			},
		},
	})
	register(KindInfo{
		Name:  KindDSESweep,
		About: "one benchmark across many LLC sizes from a single shared warm-up (working-set curve / DSE)",
		New:   func() any { return new(DSESweepParams) },
		Validate: func(p Params) error {
			sp := p.(DSESweepParams)
			if n := len(sp.Sizes); n == 0 || n > MaxListLen {
				return fmt.Errorf("sizes: %d LLC sizes, want 1 to %d", n, MaxListLen)
			}
			if err := sp.Cfg.Validate(); err != nil {
				return fmt.Errorf("cfg: %w", err)
			}
			for i, size := range sp.Sizes {
				if err := warm.ValidateLLC(size, sp.Cfg.Scale); err != nil {
					return fmt.Errorf("sizes[%d]: %w", i, err)
				}
			}
			return sp.Bench.validate()
		},
		Run:   runDSESweep,
		Codec: jsonCodec[*dse.Result](1),
	})
	register(KindInfo{
		Name:  KindCoRunProfile,
		About: "size-independent solo profile of one app (reuse histogram, base CPI, penalty fit)",
		New:   func() any { return new(CoRunProfileParams) },
		Validate: func(p Params) error {
			sp := p.(CoRunProfileParams)
			return validateCoRun(sp.Cfg, sp.benchRefs())
		},
		Run:   runCoRunProfile,
		Codec: jsonCodec[multiprog.SoloProfile](1),
	})
	register(KindInfo{
		Name:  KindCoRunCalibrate,
		About: "per-(app, LLC size) calibration; nests the app's corun-profile",
		New:   func() any { return new(CoRunCalParams) },
		Validate: func(p Params) error {
			sp := p.(CoRunCalParams)
			return validateCoRun(sp.Cfg, sp.benchRefs())
		},
		Run:   runCoRunCalibrate,
		Codec: jsonCodec[multiprog.SoloCalibration](1),
	})
	register(KindInfo{
		Name:  KindCoRunWarm,
		About: "warmed+aligned co-run engine checkpoint for one mix (forked by corun-sim cells)",
		New:   func() any { return new(CoRunWarmParams) },
		Validate: func(p Params) error {
			sp := p.(CoRunWarmParams)
			return validateCoRun(sp.Cfg, sp.Apps)
		},
		Run:   runCoRunWarm,
		Codec: jsonCodec[*multiprog.CoSimCheckpoint](1),
	})
	register(KindInfo{
		Name:  KindCoRunSim,
		About: "one simulated shared-LLC co-run matrix cell",
		New:   func() any { return new(CoRunSimParams) },
		Validate: func(p Params) error {
			sp := p.(CoRunSimParams)
			return validateCoRun(sp.Cfg, sp.Apps)
		},
		Run:   runCoRunSim,
		Codec: jsonCodec[*multiprog.CoRunResult](1),
	})
}
