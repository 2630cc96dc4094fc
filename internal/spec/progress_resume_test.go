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
