// Command labload is the load-generator harness for labd: concurrent
// clients submit real (small) sampling specs, wait for completion, back
// off on 429 per the Retry-After hint, and report submit/wait latency
// percentiles. With -submit-p99-ms / -wait-p99-ms it acts as a gate —
// nonzero exit when a percentile exceeds its bound or any request fails —
// which is how CI's labload-smoke job keeps the service's latency honest.
//
// With a comma-separated -addr list it drives a multi-node fleet:
// requests round-robin across the nodes and the report adds aggregate
// throughput plus the fleet-wide counter movement (executions and peer
// fetches) scraped from every node's /v1/status.
//
// Usage:
//
//	labload [-addr localhost:8080[,localhost:8081,...]] [-n 32] [-clients 4]
//	        [-unique 8] [-seed N] [-submit-p99-ms MS] [-wait-p99-ms MS] [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lab"
)

func main() {
	var (
		addr      = flag.String("addr", "localhost:8080", "labd address(es), comma-separated for a fleet (host:port or full URL)")
		n         = flag.Int("n", 32, "total submissions")
		clients   = flag.Int("clients", 4, "concurrent clients")
		unique    = flag.Int("unique", 0, "distinct specs (0 = n/4); the rest ride the cache/dedup path")
		seed      = flag.Uint64("seed", 1, "base seed decorrelating this run's spec keys")
		submitP99 = flag.Float64("submit-p99-ms", 0, "fail if submit p99 exceeds this many ms (0 = no gate)")
		waitP99   = flag.Float64("wait-p99-ms", 0, "fail if wait p99 exceeds this many ms (0 = no gate)")
		asJSON    = flag.Bool("json", false, "emit the report as JSON")
	)
	flag.Parse()

	var bases []string
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimSpace(a); a == "" {
			continue
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		bases = append(bases, a)
	}
	rep, err := lab.RunLoad(lab.LoadConfig{
		BaseURLs: bases, Requests: *n, Clients: *clients, Unique: *unique, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "labload:", err)
		os.Exit(1)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	} else {
		fmt.Printf("labload: %d requests (%d accepted, %d cache hits, %d rejections, %d failures) in %.0f ms\n",
			rep.Requests, rep.Accepted, rep.CacheHits, rep.Rejected, rep.Failures, rep.ElapsedMs)
		fmt.Printf("  submit latency: p50 %.2f ms, p99 %.2f ms\n", rep.SubmitP50Ms, rep.SubmitP99Ms)
		fmt.Printf("  wait latency:   p50 %.2f ms, p99 %.2f ms\n", rep.WaitP50Ms, rep.WaitP99Ms)
		fmt.Printf("  aggregate: %d node(s), %.0f req/s\n", rep.Nodes, rep.ThroughputRPS)
		if f := rep.Fleet; f != nil {
			fmt.Printf("  fleet: %d executions, peer fetch %d hit / %d miss / %d err\n",
				f.Executions, f.PeerFetchHits, f.PeerFetchMisses, f.PeerFetchErrors)
		}
	}

	bad := false
	if rep.Failures > 0 {
		fmt.Fprintf(os.Stderr, "labload: %d requests failed\n", rep.Failures)
		bad = true
	}
	if *submitP99 > 0 && rep.SubmitP99Ms > *submitP99 {
		fmt.Fprintf(os.Stderr, "labload: submit p99 %.2f ms exceeds gate %.2f ms\n", rep.SubmitP99Ms, *submitP99)
		bad = true
	}
	if *waitP99 > 0 && rep.WaitP99Ms > *waitP99 {
		fmt.Fprintf(os.Stderr, "labload: wait p99 %.2f ms exceeds gate %.2f ms\n", rep.WaitP99Ms, *waitP99)
		bad = true
	}
	if bad {
		os.Exit(1)
	}
}
