package spec

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/workload"
)

// TestSuiteJSONMatchesProfiles: the per-process encodings canonicalKey
// folds into by-name keys are exactly json.Marshal of each suite
// profile, for every suite name, so caching them changes no key.
func TestSuiteJSONMatchesProfiles(t *testing.T) {
	suite, err := suiteJSON()
	if err != nil {
		t.Fatal(err)
	}
	bench := workload.Benchmarks()
	if len(suite) != len(bench) {
		t.Fatalf("suiteJSON holds %d profiles, the suite has %d", len(suite), len(bench))
	}
	for _, p := range bench {
		want, err := json.Marshal(workload.ByName(p.Name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(suite[p.Name], want) {
			t.Errorf("%s: cached encoding differs from json.Marshal(workload.ByName)", p.Name)
		}
	}
}
