package multiprog

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// fuzzEngine is the fixed two-app machine FuzzCoSimCheckpoint restores
// onto: the smallest caches DefaultHierarchy builds, a 16-entry ROB and
// predictor tables, and the prefetcher on so its state is restored too.
// Small structures keep the seed corpus a few KiB per file.
func fuzzEngine() ([]*workload.Profile, CoSimConfig) {
	cfg := DefaultCoSimConfig()
	cfg.Scale = 1024
	cfg.LLCPaperBytes = 8 << 20
	cfg.Prefetch = true
	cfg.CPU.ROB = 16
	cfg.CPU.BP.LocalEntries, cfg.CPU.BP.GlobalEntries = 16, 16
	cfg.CPU.BP.ChoiceEntries, cfg.CPU.BP.BTBEntries = 16, 16
	cfg.WarmupInstr = 2_000
	cfg.MeasureCycles = 4_000
	cfg.Quantum = 25
	return []*workload.Profile{workload.Mcf(), workload.Lbm()}, cfg
}

// FuzzCoSimCheckpoint: a co-run checkpoint arrives from a store or a peer
// as JSON, and NewCoSimFromCheckpoint is the one restore for both the warm
// cut and mid-window progress (through the CoreState, HierarchyState and
// Position restores). For any bytes that decode, the restore onto the
// fixed engine either returns an error or yields an engine that
// re-captures to a checkpoint deep-equal to the decoded one, and the
// restored engine finishes its measured window without panicking. The
// window is bounded whatever the bytes say: a restore refuses an app clock
// behind the aligned cycle, so no clock starts more than MeasureCycles
// short of the horizon. The checked-in corpus holds the warm cut, a
// mid-window capture and one refusal per check.
func FuzzCoSimCheckpoint(f *testing.F) {
	profs, cfg := fuzzEngine()
	f.Fuzz(func(t *testing.T, raw []byte) {
		var ck CoSimCheckpoint
		if json.Unmarshal(raw, &ck) != nil {
			return
		}
		cs, err := NewCoSimFromCheckpoint(profs, cfg, &ck)
		if err != nil {
			return
		}
		got := cs.Checkpoint()
		emptyToNil(reflect.ValueOf(got).Elem())
		emptyToNil(reflect.ValueOf(&ck).Elem())
		if !reflect.DeepEqual(got, &ck) {
			t.Fatalf("restored engine re-captures a different checkpoint:\n got  %+v\n want %+v", got, &ck)
		}
		cs.RunMeasured()
	})
}

// emptyToNil sets every empty slice reachable from v to nil: JSON tells
// `[]` from `null` and State writes either, but the two restore alike.
func emptyToNil(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			emptyToNil(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			emptyToNil(v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.SetZero()
		}
		for i := 0; i < v.Len(); i++ {
			emptyToNil(v.Index(i))
		}
	}
}
