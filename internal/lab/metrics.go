package lab

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// This file is the service's hand-rolled Prometheus text exposition
// (format 0.0.4): counters, gauges and fixed-bucket latency histograms,
// written without a client library — the inventory is small and stable,
// and the repository's no-new-dependencies rule applies.

// latBounds are the histogram bucket upper bounds in seconds, spanning
// sub-millisecond submit acknowledgements to minute-long experiment waits.
var latBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60,
}

// numLatBuckets is len(latBounds)+1 (the extra slot is the +Inf tail);
// kept as a constant so latHist can embed a fixed-size array.
const numLatBuckets = 16

func init() {
	if len(latBounds)+1 != numLatBuckets {
		panic("lab: numLatBuckets out of sync with latBounds")
	}
}

// latHist is a fixed-bucket latency histogram in Prometheus semantics:
// bucket counts are kept per-interval and cumulated at render time, plus
// running sum and count for the _sum/_count series.
type latHist struct {
	mu      sync.Mutex
	buckets [numLatBuckets]uint64 // last bucket: > latBounds[len-1] (+Inf)
	sum     float64
	count   uint64
}

// Observe records one latency observation in seconds.
func (h *latHist) Observe(seconds float64) {
	i := sort.SearchFloat64s(latBounds, seconds)
	h.mu.Lock()
	h.buckets[i]++
	h.sum += seconds
	h.count++
	h.mu.Unlock()
}

// Quantile returns an upper bound for quantile q (0 < q <= 1): the bound
// of the first bucket at which the cumulative count reaches q·count
// (+Inf when the tail bucket is hit). The load harness gates p99 on it.
func (h *latHist) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	need := uint64(q * float64(h.count))
	if need == 0 {
		need = 1
	}
	var cum uint64
	for i, b := range h.buckets {
		cum += b
		if cum >= need {
			if i < len(latBounds) {
				return latBounds[i]
			}
			break
		}
	}
	return math.Inf(1) // tail bucket: above every finite bound
}

// writeProm emits the histogram as a Prometheus histogram metric.
func (h *latHist) writeProm(w io.Writer, name, help string) {
	h.mu.Lock()
	buckets, sum, count := h.buckets, h.sum, h.count
	h.mu.Unlock()
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for i, bound := range latBounds {
		cum += buckets[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, trimFloat(bound), cum)
	}
	cum += buckets[len(latBounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, sum)
	fmt.Fprintf(w, "%s_count %d\n", name, count)
}

// trimFloat formats a bucket bound the canonical Prometheus way.
func trimFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// serviceMetrics holds the server-side counters and latency histograms
// behind /metrics (everything else on that page is sampled live from the
// engine, store and job ledger).
type serviceMetrics struct {
	submits   atomic.Uint64 // POST /v1/specs requests decoded successfully
	rejected  atomic.Uint64 // submissions refused with 429 (queue or ledger full)
	cancels   atomic.Uint64 // cancellation requests accepted (DELETE or abandoned wait)
	stored    atomic.Uint64 // submissions acknowledged from the store without a journal record
	recovered atomic.Uint64 // journaled jobs re-armed after a restart
	submitLat latHist       // POST /v1/specs handler latency
	waitLat   latHist       // successful /v1/jobs/{key}/wait latency
}

func promCounter(w io.Writer, name, help string, v uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func promGauge(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
}
