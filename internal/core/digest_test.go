package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/warm"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/delorean.sha256")

const digestFile = "testdata/delorean.sha256"

// resultDigest is the hex SHA-256 of every simulated output of a run: the
// detailed regions, the aggregate and per-pass ledgers, and the Explorer
// metrics. Counter ledgers encode with sorted keys, so the encoding is
// canonical.
func resultDigest(r *Result) (string, error) {
	b, err := json.Marshal(struct {
		Regions         []warm.RegionResult
		Counters        any
		PassCounters    any
		KeysPerExplorer [5]uint64
		AvgExplorers    float64
	}{r.Regions, r.Counters, r.PassCounters, r.KeysPerExplorer, r.AvgExplorers})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) != 2 {
			t.Fatalf("%s: malformed line %q", digestFile, sc.Text())
		}
		out[fs[1]] = fs[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDeLoreanDigests pins every simulated output of the pipeline, for
// every workload profile under every equivalence configuration, against
// checked-in digests. Host-side
// optimisations of the passes (how they reach their positions, how the
// workload generator advances) must leave every figure byte-identical.
func TestDeLoreanDigests(t *testing.T) {
	profs := append([]*workload.Profile{testProfile()}, workload.Benchmarks()...)
	if testing.Short() && !*update {
		profs = profs[:7]
	}
	var want map[string]string
	if !*update {
		want = readDigests(t)
	}
	var mu sync.Mutex
	got := map[string]string{}
	t.Run("all", func(t *testing.T) {
		for cfgName, cfg := range equivalenceConfigs() {
			cfgName, cfg := cfgName, cfg
			for _, prof := range profs {
				prof := prof
				name := prof.Name + "/" + cfgName
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					d, err := resultDigest(New(prof, cfg).RunSequential())
					if err != nil {
						t.Fatal(err)
					}
					if *update {
						mu.Lock()
						got[name] = d
						mu.Unlock()
						return
					}
					if w, ok := want[name]; !ok || w != d {
						t.Errorf("%s: digest %s, reference %q", name, d, w)
					}
				})
			}
		}
	})
	if !*update || t.Failed() {
		return
	}
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s %s\n", got[n], n)
	}
	if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
