package lab

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/spec"
	"repro/internal/warm"
)

// This file is the labd load generator (cmd/labload, the labd-load perf
// scenario, and CI's labload-smoke gate): concurrent clients submit real
// sampling specs against a running service, wait for completion, honor
// 429 backpressure by backing off per the Retry-After hint, and report
// submit/wait latency percentiles. It lives in the lab package so the
// harness, the CLI and the service tests share one implementation.

// LoadConfig parameterizes one load run.
type LoadConfig struct {
	// BaseURL is the service root, e.g. "http://localhost:8080".
	BaseURL string
	// BaseURLs, when set, drives a multi-node fleet: requests round-robin
	// across the nodes and the report aggregates throughput plus the
	// cross-node fleet counters scraped from every node's /v1/status.
	// Overrides BaseURL.
	BaseURLs []string
	// Bodies, when set, are the exact spec bodies to cycle through
	// instead of generated LoadSpecs — e.g. a warmed co-run matrix for
	// cache-hit fleet traffic. Overrides Unique/Seed.
	Bodies [][]byte
	// Requests is the total number of submissions. Default 32.
	Requests int
	// Clients is the number of concurrent submitters. Default 4.
	Clients int
	// Unique is how many distinct specs the run cycles through; requests
	// beyond Unique resubmit earlier specs and ride the cache/dedup path.
	// Default: Requests/4 (min 1).
	Unique int
	// Seed decorrelates the generated specs from other runs' (each spec
	// perturbs its RNG seed with Seed+i, producing a distinct key).
	Seed uint64
	// MaxRetries bounds per-request retries on 429 before the request
	// counts as a failure. Default 10.
	MaxRetries int
	// Client is the HTTP client to use (default http.DefaultClient).
	Client *http.Client
}

func (c LoadConfig) withDefaults() LoadConfig {
	if len(c.BaseURLs) == 0 && c.BaseURL != "" {
		c.BaseURLs = []string{c.BaseURL}
	}
	if c.Requests == 0 {
		c.Requests = 32
	}
	if c.Clients == 0 {
		c.Clients = 4
	}
	if c.Unique == 0 {
		c.Unique = c.Requests / 4
	}
	if c.Unique < 1 {
		c.Unique = 1
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 10
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	return c
}

// LoadReport aggregates one load run.
type LoadReport struct {
	Requests  int `json:"requests"`
	Accepted  int `json:"accepted"`   // 202: newly queued (or re-armed)
	CacheHits int `json:"cache_hits"` // 200: deduplicated or finished
	Rejected  int `json:"rejected"`   // 429 responses observed (before retry)
	Failures  int `json:"failures"`   // exhausted retries, HTTP errors, failed jobs

	SubmitP50Ms float64 `json:"submit_p50_ms"`
	SubmitP99Ms float64 `json:"submit_p99_ms"`
	WaitP50Ms   float64 `json:"wait_p50_ms"`
	WaitP99Ms   float64 `json:"wait_p99_ms"`
	ElapsedMs   float64 `json:"elapsed_ms"`

	// Nodes is how many base URLs the run round-robined across, and
	// ThroughputRPS the aggregate completed requests per second — the
	// fleet's headline number.
	Nodes         int     `json:"nodes"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// Fleet, when any node reports fleet state, is the delta of the
	// cross-node counters over this run, summed fleet-wide.
	Fleet *FleetLoadTotals `json:"fleet,omitempty"`
}

// FleetLoadTotals is the fleet-wide counter movement during one load run
// (after-minus-before sums of every reachable node's /v1/status).
type FleetLoadTotals struct {
	Executions      uint64 `json:"executions"`
	PeerFetchHits   uint64 `json:"peer_fetch_hits"`
	PeerFetchMisses uint64 `json:"peer_fetch_misses"`
	PeerFetchErrors uint64 `json:"peer_fetch_errors"`
}

// LoadSpecs builds n distinct, cheap-but-real sampling specs (one region,
// small gap): heavy enough to exercise the whole submit → execute →
// artifact path, light enough that a load run finishes in seconds.
func LoadSpecs(n int, seed uint64) ([][]byte, error) {
	cfg := warm.DefaultConfig()
	cfg.Regions = 1
	cfg.PaperGap = 400_000
	cfg.Scale = 1
	cfg.VicinityEvery = 5_000
	out := make([][]byte, n)
	for i := range out {
		c := cfg
		c.Seed = seed + uint64(i)
		s, err := spec.New(spec.SamplingParams{
			Bench: spec.BenchRef{Name: "mcf"}, Method: spec.MethodDeLorean, Cfg: c,
		})
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// RunLoad executes one load run against a live service (or, with
// BaseURLs, round-robin across a fleet).
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.withDefaults()
	if len(cfg.BaseURLs) == 0 {
		return nil, fmt.Errorf("lab: RunLoad needs BaseURL or BaseURLs")
	}
	bodies := cfg.Bodies
	if len(bodies) == 0 {
		var err error
		bodies, err = LoadSpecs(cfg.Unique, cfg.Seed)
		if err != nil {
			return nil, err
		}
	}
	before := scrapeFleet(cfg)

	rep := &LoadReport{Requests: cfg.Requests, Nodes: len(cfg.BaseURLs)}
	var (
		mu         sync.Mutex
		submitLats []float64
		waitLats   []float64
	)
	start := time.Now()
	var wg sync.WaitGroup
	next := make(chan int)
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				base := cfg.BaseURLs[i%len(cfg.BaseURLs)]
				submitMs, waitMs, accepted, rejections, err := runOne(cfg, base, bodies[i%len(bodies)])
				mu.Lock()
				rep.Rejected += rejections
				if err != nil {
					rep.Failures++
				} else {
					if accepted {
						rep.Accepted++
					} else {
						rep.CacheHits++
					}
					submitLats = append(submitLats, submitMs)
					waitLats = append(waitLats, waitMs)
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < cfg.Requests; i++ {
		next <- i
	}
	close(next)
	wg.Wait()

	rep.ElapsedMs = float64(time.Since(start).Nanoseconds()) / 1e6
	rep.SubmitP50Ms = percentile(submitLats, 0.50)
	rep.SubmitP99Ms = percentile(submitLats, 0.99)
	rep.WaitP50Ms = percentile(waitLats, 0.50)
	rep.WaitP99Ms = percentile(waitLats, 0.99)
	if rep.ElapsedMs > 0 {
		rep.ThroughputRPS = float64(rep.Accepted+rep.CacheHits) / (rep.ElapsedMs / 1000)
	}
	if after := scrapeFleet(cfg); after != nil && before != nil {
		rep.Fleet = &FleetLoadTotals{
			Executions:      after.Executions - before.Executions,
			PeerFetchHits:   after.PeerFetchHits - before.PeerFetchHits,
			PeerFetchMisses: after.PeerFetchMisses - before.PeerFetchMisses,
			PeerFetchErrors: after.PeerFetchErrors - before.PeerFetchErrors,
		}
	}
	return rep, nil
}

// scrapeFleet sums the fleet-relevant counters across every reachable
// node's /v1/status; nil when no node reports fleet state (single-node
// runs keep their report shape unchanged). Unreachable nodes are skipped
// — a load run against a fleet with a dead member still reports.
func scrapeFleet(cfg LoadConfig) *FleetLoadTotals {
	var tot FleetLoadTotals
	anyFleet := false
	for _, base := range cfg.BaseURLs {
		resp, err := cfg.Client.Get(base + "/v1/status")
		if err != nil {
			continue
		}
		var st struct {
			Executions uint64      `json:"executions"`
			Fleet      *FleetStats `json:"fleet"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			continue
		}
		tot.Executions += st.Executions
		if st.Fleet != nil {
			anyFleet = true
			tot.PeerFetchHits += st.Fleet.PeerFetch.Hits
			tot.PeerFetchMisses += st.Fleet.PeerFetch.Misses
			tot.PeerFetchErrors += st.Fleet.PeerFetch.Errors
		}
	}
	if !anyFleet {
		return nil
	}
	return &tot
}

// runOne submits one spec to base (retrying on 429 per the Retry-After
// hint) and waits for the job to finish.
func runOne(cfg LoadConfig, base string, body []byte) (submitMs, waitMs float64, accepted bool, rejections int, err error) {
	var st JobStatus
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		resp, perr := cfg.Client.Post(base+"/v1/specs", "application/json", bytes.NewReader(body))
		if perr != nil {
			return 0, 0, false, rejections, perr
		}
		submitMs = float64(time.Since(t0).Nanoseconds()) / 1e6
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusOK:
			accepted = resp.StatusCode == http.StatusAccepted
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				return 0, 0, false, rejections, err
			}
		case http.StatusTooManyRequests:
			rejections++
			hint := resp.Header.Get("Retry-After")
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if attempt >= cfg.MaxRetries {
				return 0, 0, false, rejections, fmt.Errorf("gave up after %d rejections", rejections)
			}
			time.Sleep(retryDelay(hint))
			continue
		default:
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return 0, 0, false, rejections, fmt.Errorf("submit: status %d", resp.StatusCode)
		}
		break
	}

	t1 := time.Now()
	resp, werr := cfg.Client.Get(base + "/v1/jobs/" + st.Key + "/wait")
	if werr != nil {
		return 0, 0, false, rejections, werr
	}
	defer resp.Body.Close()
	waitMs = float64(time.Since(t1).Nanoseconds()) / 1e6
	if resp.StatusCode != http.StatusOK {
		return 0, 0, false, rejections, fmt.Errorf("wait: status %d", resp.StatusCode)
	}
	var fin JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&fin); err != nil {
		return 0, 0, false, rejections, err
	}
	if fin.State != StateDone {
		return 0, 0, false, rejections, fmt.Errorf("job ended %s: %s", fin.State, fin.Error)
	}
	return submitMs, waitMs, accepted, rejections, nil
}

// retryDelay parses a Retry-After seconds hint, clamped to keep load runs
// responsive (the hint is a lower-bound suggestion, not a contract).
func retryDelay(hint string) time.Duration {
	if secs, err := strconv.Atoi(hint); err == nil && secs > 0 {
		d := time.Duration(secs) * time.Second
		if d > 2*time.Second {
			d = 2 * time.Second
		}
		return d
	}
	return 100 * time.Millisecond
}

// percentile returns the q-th percentile of lats (nearest-rank, ms).
func percentile(lats []float64, q float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]float64(nil), lats...)
	sort.Float64s(sorted)
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
