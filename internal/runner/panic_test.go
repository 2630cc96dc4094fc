package runner_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runner"
)

// panicAt is a named frame the panic stacks must show.
func panicAt(i int) { panic(fmt.Sprintf("boom at %d", i)) }

// requireNoLeak waits for the goroutine count to fall back to before.
func requireNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestForEachPanicSurfacesOnCaller: a panic in one ForEach worker stops
// the pool and is re-raised on the caller as a *PanicError carrying the
// worker's stack, after every worker has exited.
func TestForEachPanicSurfacesOnCaller(t *testing.T) {
	const n = 200
	before := runtime.NumGoroutine()
	var calls atomic.Int32
	var got any
	func() {
		defer func() { got = recover() }()
		runner.ForEach(n, 4, func(i int) {
			calls.Add(1)
			if i == 3 {
				panicAt(i)
			}
			time.Sleep(time.Millisecond)
		})
	}()
	pe, ok := got.(*runner.PanicError)
	if !ok || pe.Value != "boom at 3" {
		t.Fatalf("recovered %v (%T), want a *PanicError carrying the worker's panic value", got, got)
	}
	if !strings.Contains(string(pe.Stack), "panicAt") {
		t.Errorf("panic stack does not name the panicking worker frame:\n%s", pe.Stack)
	}
	if c := calls.Load(); c >= n {
		t.Errorf("all %d calls ran; the pool did not stop after the panic", c)
	}
	requireNoLeak(t, before)
}

// TestFanOutPanicContained: a job whose ForEach fan-out panics fails as a
// *PanicError, and the engine keeps serving other jobs.
func TestFanOutPanicContained(t *testing.T) {
	eng := runner.New(2)
	bad := fnSpec{key: "fans-out-and-panics", exec: func(runner.Sub) (any, error) {
		runner.ForEach(8, 4, func(i int) {
			if i == 5 {
				panicAt(i)
			}
		})
		return "unreachable", nil
	}}
	_, err := eng.RunSpec(bad)
	var pe *runner.PanicError
	if !errors.As(err, &pe) || pe.Value != "boom at 5" {
		t.Fatalf("err = %v, want a *PanicError carrying the worker's panic value", err)
	}
	if !strings.Contains(string(pe.Stack), "panicAt") {
		t.Errorf("panic stack does not name the panicking worker frame:\n%s", pe.Stack)
	}
	ok := fnSpec{key: "after", exec: func(runner.Sub) (any, error) { return 7, nil }}
	if v, err := eng.RunSpec(ok); err != nil || v != 7 {
		t.Fatalf("engine after the panic: v=%v err=%v", v, err)
	}
}
