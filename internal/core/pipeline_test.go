package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
)

// panickingPass is a named frame the re-raised stack must show.
func panickingPass(pass string, m int) { panic(fmt.Sprintf("%s failed at region %d", pass, m)) }

// runFakePipeline drives pipeline over n regions and three stages whose
// pass named fail panics at region failAt (no pass fails when fail is
// empty). It returns the regions the sink received and what was
// recovered on the caller.
func runFakePipeline(n int, fail string, failAt int) (sunk []int, recovered any) {
	pass := func(name string) func(*RegionData) {
		return func(msg *RegionData) {
			if name == fail && msg.M == failAt {
				panickingPass(name, msg.M)
			}
		}
	}
	produce := func(m int) *RegionData {
		if fail == "produce" && m == failAt {
			panickingPass(fail, m)
		}
		return &RegionData{M: m}
	}
	stages := []func(*RegionData){pass("stage-0"), pass("stage-1"), pass("stage-2")}
	sink := pass("sink")
	defer func() { recovered = recover() }()
	pipeline(n, produce, stages, func(msg *RegionData) {
		sink(msg)
		sunk = append(sunk, msg.M)
	})
	return sunk, nil
}

// TestPipelinePanicReraisedOnCaller: a panic in the producer, a middle
// stage or the sink stops the pipeline without deadlock and is re-raised
// on the caller as a *runner.PanicError carrying the panicking pass's
// stack, with every stage goroutine gone.
func TestPipelinePanicReraisedOnCaller(t *testing.T) {
	const n = 20
	if sunk, r := runFakePipeline(n, "", 0); r != nil || !slices.Equal(sunk, []int{
		0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}) {
		t.Fatalf("healthy pipeline: sunk %v, recovered %v", sunk, r)
	}
	for _, fail := range []string{"produce", "stage-1", "sink"} {
		before := runtime.NumGoroutine()
		sunk, r := runFakePipeline(n, fail, 3)
		pe, ok := r.(*runner.PanicError)
		want := fmt.Sprintf("%s failed at region 3", fail)
		if !ok || pe.Value != want {
			t.Fatalf("%s: recovered %v (%T), want a *runner.PanicError with %q", fail, r, r, want)
		}
		if !strings.Contains(string(pe.Stack), "panickingPass") {
			t.Errorf("%s: stack does not name the panicking pass:\n%s", fail, pe.Stack)
		}
		if len(sunk) > 3 {
			t.Errorf("%s: sink received %v, past the failed region", fail, sunk)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines still running, %d before", fail, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
