package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"syscall"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's values by name.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the run's report, printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// declared is one metric BENCHMARK.json declares.
type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// manifest is the part of BENCHMARK.json the benchmark reads: the
// workloads it must know and the metrics it must emit.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// emit selects the declared metrics from what the run measured: every
// end-to-end metric (untraced run) or every per-layer metric (traced run),
// with the declared unit. A workload must measure every end-to-end metric;
// a per-layer metric of a layer the workload never calls reads 0.
func (man *manifest) emit(m metrics, traced bool) (map[string]metric, error) {
	list := man.EndToEnd
	if traced {
		list = man.PerLayer
	}
	out := make(map[string]metric, len(list))
	for _, d := range list {
		v, ok := m[d.Name]
		switch {
		case !ok && !traced:
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		case !ok:
			v = metric{Unit: d.Unit}
		case v.Unit != d.Unit:
			return nil, fmt.Errorf("metric %s is measured in %s, BENCHMARK.json declares %s", d.Name, v.Unit, d.Unit)
		}
		out[d.Name] = v
	}
	return out, nil
}

// percentile returns the nearest-rank q-quantile of vs (0 when empty) as
// labd's load generator (lab.RunLoad) computes it: the value of rank q·n
// rounded to the nearest whole number, clamped to 1…n.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// readPeakRSS returns the process's peak resident set size in MiB.
func readPeakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
