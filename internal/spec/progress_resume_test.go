package spec

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/artifact"
	"repro/internal/multiprog"
	"repro/internal/runner"
	"repro/internal/warm"
)

// cancelOnPut wraps a Blob and cancels a context after the Nth Put of one
// specific key. It turns "the job died mid-measured-window" into a
// deterministic event: the cancellation lands synchronously inside the
// progress callback, so the run always stops with exactly `after`
// checkpoints persisted.
type cancelOnPut struct {
	artifact.Blob
	key    string
	after  int
	cancel context.CancelFunc
	n      int
}

func (c *cancelOnPut) Put(key string, data []byte) bool {
	ok := c.Blob.Put(key, data)
	if key == c.key {
		if c.n++; c.n == c.after {
			c.cancel()
		}
	}
	return ok
}

// TestCancelledCellResumesFromProgress is the end-to-end resume guarantee
// at the spec layer: a co-run cell cancelled mid-measured-window leaves a
// progress checkpoint behind, and the next execution of the same spec
// over the same store resumes from it — landing on the bit-identical
// result without re-running the warm-up or the already-paid window
// prefix — then deletes the trail once the real artifact exists.
func TestCancelledCellResumesFromProgress(t *testing.T) {
	defer func(v uint64) { ProgressEveryQuanta = v }(ProgressEveryQuanta)
	ProgressEveryQuanta = 256

	dir := t.TempDir()
	cfg := warm.DefaultConfig()
	apps := []BenchRef{{Name: "mcf"}, {Name: "lbm"}}
	cell := CoRunSimParams{Mix: "mcf-lbm", Apps: apps, Cfg: cfg}
	cellKey := MustNew(cell).Key()
	warmKey := MustNew(CoRunWarmParams{Mix: cell.Mix, Apps: apps, Cfg: cfg}).Key()
	pkey := ProgressKey(cellKey)

	// Control: the straight answer, computed store-less so no progress
	// machinery is involved.
	ctrl := runner.New(1)
	want, err := ctrl.RunSpec(MustNew(cell))
	if err != nil {
		t.Fatal(err)
	}

	// First execution: die (via cancellation) right after the 2nd progress
	// checkpoint hits the store.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inner, err := artifact.NewDiskBlob(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := artifact.OpenBlob(&cancelOnPut{Blob: inner, key: pkey, after: 2, cancel: cancel}, 0, Codecs())
	if err != nil {
		t.Fatal(err)
	}
	eng := runner.New(1)
	eng.Store = st
	if _, err := eng.RunSpecCtx(ctx, MustNew(cell)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if _, ok := st.StatKey(pkey); !ok {
		t.Fatal("no progress checkpoint survived the cancelled run")
	}
	if _, ok := st.StatKey(cellKey); ok {
		t.Fatal("cancelled run leaked a cell result artifact")
	}

	// Second execution over the same directory must resume, not recompute.
	// Deleting the warm checkpoint first makes the distinction observable:
	// the resume path never touches it, while a from-scratch run would
	// re-create it.
	st2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	st2.DeleteKey(warmKey)
	eng2 := runner.New(1)
	eng2.Store = st2
	got, err := eng2.RunSpec(MustNew(cell))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed result diverged from straight run:\n got  %+v\n want %+v", got, want)
	}
	if _, ok := st2.StatKey(warmKey); ok {
		t.Error("resume path re-ran the warm-up instead of resuming from progress")
	}
	if _, ok := st2.StatKey(pkey); ok {
		t.Error("progress trail not deleted after the run completed")
	}
	if _, ok := st2.StatKey(cellKey); !ok {
		t.Error("completed run did not persist the cell result")
	}

	// A third engine now serves the finished cell straight from the store.
	st3, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng3 := runner.New(1)
	eng3.Store = st3
	v, err := eng3.RunSpec(MustNew(cell))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v, want) || st3.Stats().Hits != 1 {
		t.Error("store-served result after resume diverged or missed")
	}
}

// benchProgressCadence times a full store-backed co-run cell execution
// (warm checkpoint loaded from the store, measured window forked and run)
// at one checkpoint cadence. The warm-up is paid once outside the timer;
// each iteration deletes the cell artifact so the measured window — the
// part the progress hook taxes — re-executes every time. Comparing the
// Off/Default variants is the cadence-overhead measurement DESIGN.md §14
// cites: the default cadence must cost < 2% of the cell.
func benchProgressCadence(b *testing.B, every uint64) {
	defer func(v uint64) { ProgressEveryQuanta = v }(ProgressEveryQuanta)
	ProgressEveryQuanta = every

	dir := b.TempDir()
	cfg := warm.DefaultConfig()
	cell := CoRunSimParams{Mix: "mcf-lbm", Apps: []BenchRef{{Name: "mcf"}, {Name: "lbm"}}, Cfg: cfg}
	cellKey := MustNew(cell).Key()
	st, err := OpenStore(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	warmup := runner.New(1)
	warmup.Store = st
	if _, err := warmup.RunSpec(MustNew(cell)); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.DeleteKey(cellKey)
		eng := runner.New(1)
		eng.Store = st
		if _, err := eng.RunSpec(MustNew(cell)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoRunCellProgressOff(b *testing.B)      { benchProgressCadence(b, 0) }
func BenchmarkCoRunCellProgressDefault(b *testing.B)  { benchProgressCadence(b, 4096) }
func BenchmarkCoRunCellProgressEvery256(b *testing.B) { benchProgressCadence(b, 256) }

// TestProgressDisabledWithoutStore pins the dormant path: a store-less
// engine runs cells with the progress hook disarmed, so ad-hoc CLI runs
// and benchmarks pay nothing for crash safety they cannot use.
func TestProgressDisabledWithoutStore(t *testing.T) {
	defer func(v uint64) { ProgressEveryQuanta = v }(ProgressEveryQuanta)
	ProgressEveryQuanta = 1 // would checkpoint every quantum if armed

	cfg := warm.DefaultConfig()
	cell := CoRunSimParams{Mix: "mcf-solo", Apps: []BenchRef{{Name: "mcf"}}, Cfg: cfg}
	eng := runner.New(1)
	v, err := eng.RunSpec(MustNew(cell))
	if err != nil {
		t.Fatal(err)
	}
	if v.(*multiprog.CoRunResult) == nil {
		t.Fatal("no result")
	}
}

// leaveProgressTrail runs cell over the store in dir and cancels it right
// after its 2nd progress checkpoint, leaving the trail a crashed run
// leaves. It returns the trail's key.
func leaveProgressTrail(t *testing.T, dir string, cell CoRunSimParams) string {
	t.Helper()
	defer func(v uint64) { ProgressEveryQuanta = v }(ProgressEveryQuanta)
	ProgressEveryQuanta = 256
	pkey := ProgressKey(MustNew(cell).Key())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inner, err := artifact.NewDiskBlob(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := artifact.OpenBlob(&cancelOnPut{Blob: inner, key: pkey, after: 2, cancel: cancel}, 0, Codecs())
	if err != nil {
		t.Fatal(err)
	}
	eng := runner.New(1)
	eng.Store = st
	if _, err := eng.RunSpecCtx(ctx, MustNew(cell)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if _, ok := st.StatKey(pkey); !ok {
		t.Fatal("no progress checkpoint survived the cancelled run")
	}
	return pkey
}

// TestProgressResumesAtCadenceZero: the cadence decides only when a run
// writes progress. A node running with it at 0 must still resume from a
// trail another node (or an earlier incarnation) left in its store — the
// deleted warm checkpoint is not re-created — and must delete that trail
// once the cell is done, or it holds store budget until evicted.
func TestProgressResumesAtCadenceZero(t *testing.T) {
	dir := t.TempDir()
	cfg := warm.DefaultConfig()
	apps := []BenchRef{{Name: "mcf"}, {Name: "lbm"}}
	cell := CoRunSimParams{Mix: "mcf-lbm", Apps: apps, Cfg: cfg}
	warmKey := MustNew(CoRunWarmParams{Mix: cell.Mix, Apps: apps, Cfg: cfg}).Key()
	want, err := runner.New(1).RunSpec(MustNew(cell))
	if err != nil {
		t.Fatal(err)
	}
	pkey := leaveProgressTrail(t, dir, cell)

	defer func(v uint64) { ProgressEveryQuanta = v }(ProgressEveryQuanta)
	ProgressEveryQuanta = 0
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.DeleteKey(warmKey)
	eng := runner.New(1)
	eng.Store = st
	got, err := eng.RunSpec(MustNew(cell))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed result diverged from straight run:\n got  %+v\n want %+v", got, want)
	}
	if _, ok := st.StatKey(warmKey); ok {
		t.Error("cadence 0 re-ran the warm-up instead of resuming from the trail")
	}
	if _, ok := st.StatKey(pkey); ok {
		t.Error("cadence 0 left the progress trail behind")
	}
}

// TestCheckpointOfAnotherMachineIgnored: a checkpoint holds state, never
// the machine. A progress trail and a warm checkpoint taken at a 32 MiB
// LLC, each stored under the key of the same cell at 8 MiB, must not
// move the cell off its own machine: it returns the straight run's
// result either way.
func TestCheckpointOfAnotherMachineIgnored(t *testing.T) {
	cfg := warm.DefaultConfig()
	apps := []BenchRef{{Name: "mcf"}, {Name: "lbm"}}
	cell := CoRunSimParams{Mix: "mcf-lbm", Apps: apps, Cfg: cfg}
	cfg.LLCPaperBytes = 32 << 20
	other := CoRunSimParams{Mix: "mcf-lbm", Apps: apps, Cfg: cfg}
	want, err := runner.New(1).RunSpec(MustNew(cell))
	if err != nil {
		t.Fatal(err)
	}
	warmKey := func(c CoRunSimParams) string {
		return MustNew(CoRunWarmParams{Mix: c.Mix, Apps: c.Apps, Cfg: c.Cfg}).Key()
	}

	for _, tc := range []struct {
		name, kind string
		// plant leaves the other machine's artifact in dir and returns
		// its key and the key the cell looks it up under.
		plant func(t *testing.T, dir string) (from, to string)
	}{
		{"progress", KindCoRunProgress, func(t *testing.T, dir string) (string, string) {
			return leaveProgressTrail(t, dir, other), ProgressKey(MustNew(cell).Key())
		}},
		{"warm", KindCoRunWarm, func(t *testing.T, dir string) (string, string) {
			st, err := OpenStore(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			eng := runner.New(1)
			eng.Store = st
			if _, err := eng.RunSpec(MustNew(CoRunWarmParams{Mix: other.Mix, Apps: other.Apps, Cfg: other.Cfg})); err != nil {
				t.Fatal(err)
			}
			return warmKey(other), warmKey(cell)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			from, to := tc.plant(t, dir)
			st, err := OpenStore(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			v, ok := st.Load(tc.kind, from)
			if !ok {
				t.Fatalf("no %s artifact to misplace", tc.kind)
			}
			st.Save(tc.kind, to, v)
			eng := runner.New(1)
			eng.Store = st
			got, err := eng.RunSpec(MustNew(cell))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("cell ran on the misplaced %s checkpoint's machine:\n got  %+v\n want %+v", tc.kind, got, want)
			}
		})
	}
}
