package spec_test

import (
	"encoding/json"
	"testing"

	"repro/internal/spec"
)

// FuzzSpecDecode: spec.Decode is the lab service's input gate, so for any
// bytes it must return an error or a spec whose JSON encoding decodes back
// to the same key, and never panic. The checked-in corpus holds one valid
// body per kind; the seeds below are malformed ones.
func FuzzSpecDecode(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"kind":"sampling"}`))
	f.Add([]byte(`{"kind":"sampling","params":null}`))
	f.Add([]byte(`{"kind":"nope","params":{}}`))
	f.Add([]byte(`{"kind":"dse-sweep","params":{"sizes":[-1]}}`))
	f.Add([]byte(`{"kind":"corun-sim","params":{"apps":[{"name":"mcf","profile":{}}]}} trailing`))
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := spec.Decode(body)
		if err != nil {
			return
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("decoded %s spec does not marshal: %v", s.Kind(), err)
		}
		d, err := spec.Decode(b)
		if err != nil {
			t.Fatalf("re-encoded %s spec does not decode: %v\n%s", s.Kind(), err, b)
		}
		if d.Key() != s.Key() {
			t.Fatalf("%s key changed across a round-trip: %s -> %s", s.Kind(), s.Key(), d.Key())
		}
	})
}
