// Command labd is the long-running lab service: an HTTP front over the
// spec → runner → artifact-store pipeline that every CLI also drives.
// Clients submit serialized experiment specs; labd deduplicates them by
// canonical key, executes them on a shared worker pool, persists results
// in the artifact store and serves them back — so one warm daemon answers
// any number of figure, DSE or co-run requests without re-running work.
//
// Usage:
//
//	labd [-addr :8080] [-store DIR] [-store-max-mb N] [-workers N]
//	     [-max-queue N] [-job-ttl D] [-max-jobs N]
//	     [-journal PATH|auto|off] [-progress-every N] [-faultpoints SCHED]
//	     [-self URL -peers URL,URL,...] [-peer-fetch-timeout D]
//
// Crash safety (DESIGN.md §14): with a store, labd keeps a durable job
// journal (default <store>/journal.wal). An accepted submission is
// durable at its accepted record, fsynced before the 202, or, when the
// store already indexes its artifact, at that artifact; a restarted
// daemon re-arms and re-runs whatever was journaled but unfinished.
// Long co-run cells additionally checkpoint mid-run progress into the
// store every -progress-every measured quanta, so a crash, a cancellation,
// or the same spec submitted to another fleet node resumes from the last
// paid-for quantum instead of starting over. -faultpoints arms
// deterministic crash sites (SIGKILL at the Nth hit) for the chaos
// harness; never set it in production.
//
// Fleet mode (-self + -peers, DESIGN.md §13): nodes serve each other's
// artifacts over an integrity-verified peer fetch tier, so a result or
// checkpoint stored anywhere in the fleet is not recomputed. Every node
// may take the same -peers list; its own -self entry is dropped from it.
// Each node executes locally whatever no peer holds yet: a spec submitted
// to several nodes at once can run once per node, sequential submissions
// run once fleet-wide. Requires -store.
//
// API:
//
//	POST   /v1/specs            submit a spec {"kind": ..., "params": {...}}
//	                            (429 + Retry-After when the queue is full)
//	GET    /v1/jobs/{key}       job status
//	DELETE /v1/jobs/{key}       cancel a queued or running job
//	GET    /v1/jobs/{key}/wait  block until the job finishes; disconnecting
//	                            the last waiter cancels the job
//	GET    /v1/events[?key=K]   NDJSON stream of experiment completions
//	GET    /v1/artifacts/{key}  the result payload (JSON); ?envelope=1
//	                            serves the raw envelope (peer fetch path)
//	GET    /v1/blobs            list stored artifacts (key, kind, size)
//	GET    /v1/blobs/{key}      raw envelope; PUT/DELETE manage it
//	GET    /v1/kinds            registered experiment kinds
//	GET    /v1/status           engine and store statistics
//	GET    /metrics             Prometheus text exposition
//	GET    /healthz             liveness
//
// Example:
//
//	labd -store /tmp/lab-store &
//	curl -s -X POST localhost:8080/v1/specs -d '{
//	  "kind": "sampling",
//	  "params": {"bench": {"name": "mcf"}, "method": "delorean",
//	             "cfg": '"$(go run ./cmd/labd -print-default-cfg)"'}}'
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/faultpoint"
	"repro/internal/lab"
	"repro/internal/runner"
	"repro/internal/spec"
	"repro/internal/warm"
)

// defaultCfg is what -print-default-cfg emits: the paper's experimental
// setup, ready to paste into a spec's "cfg" field.
func defaultCfg() warm.Config { return warm.DefaultConfig() }

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		storeDir = flag.String("store", "", "artifact store directory (empty = in-memory cache only)")
		storeMax = flag.Int64("store-max-mb", 0, "artifact store size budget in MiB (0 = unbounded)")
		workers  = flag.Int("workers", 0, "experiment worker pool size (0 = GOMAXPROCS)")
		maxQueue = flag.Int("max-queue", 0, "queued-job bound before 429 (0 = default 256, negative = unbounded)")
		jobTTL   = flag.Duration("job-ttl", 0, "how long finished jobs stay in the ledger (0 = default 15m, negative = forever)")
		maxJobs  = flag.Int("max-jobs", 0, "job ledger cap (0 = default 16384, negative = unbounded)")
		printCfg = flag.Bool("print-default-cfg", false, "print the default warm.Config as JSON and exit")

		self         = flag.String("self", "", "fleet mode: this node's advertised base URL (dropped from -peers)")
		peers        = flag.String("peers", "", "fleet mode: comma-separated peer base URLs")
		fetchTimeout = flag.Duration("peer-fetch-timeout", 0, "per-attempt peer artifact fetch timeout (0 = default 5s)")

		journalPath   = flag.String("journal", "auto", "durable job journal WAL path (auto = <store>/journal.wal when -store is set, off = disable)")
		progressEvery = flag.Uint64("progress-every", spec.ProgressEveryQuanta, "co-run mid-run checkpoint cadence in measured quanta (0 = disable)")
		faultpoints   = flag.String("faultpoints", "", "deterministic crash schedule for chaos testing, e.g. journal.accept=2,artifact.put=1 (SIGKILLs the process at the Nth hit)")
	)
	flag.Parse()

	if *printCfg {
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(defaultCfg()); err != nil {
			fatal(err)
		}
		return
	}

	spec.ProgressEveryQuanta = *progressEvery
	if *faultpoints != "" {
		if err := faultpoint.Arm(*faultpoints); err != nil {
			fatal(err)
		}
	}

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	fleet := len(peerList) > 0
	if fleet != (*self != "") {
		fatal(fmt.Errorf("fleet mode needs both -self and -peers"))
	}

	var (
		eng   *runner.Engine
		store *artifact.Store
		err   error
	)
	if fleet {
		eng, store, err = lab.NewFleetEngine(*workers, *storeDir, *storeMax<<20, *self, peerList, *fetchTimeout)
	} else {
		eng, store, err = lab.NewEngine(*workers, *storeDir, *storeMax<<20)
	}
	if err != nil {
		fatal(err)
	}

	// Durable job journal (DESIGN.md §14): accepted submissions the store
	// cannot answer yet are fsynced before the 202, and whatever a
	// previous incarnation journaled but never finished is re-armed below,
	// once the server exists.
	var (
		jrnl    *lab.Journal
		pending []lab.PendingJob
	)
	switch {
	case *journalPath == "off":
	case *journalPath == "auto" && *storeDir == "":
		// No store, nothing durable to resume against: journal off.
	default:
		path := *journalPath
		if path == "auto" {
			path = filepath.Join(*storeDir, "journal.wal")
		}
		if jrnl, pending, err = lab.OpenJournal(path); err != nil {
			fatal(err)
		}
	}

	labSrv := lab.NewServerOpts(eng, store, lab.Options{
		MaxQueue: *maxQueue, JobTTL: *jobTTL, MaxJobs: *maxJobs, Journal: jrnl,
	})
	if n := labSrv.Recover(pending); n > 0 {
		fmt.Fprintf(os.Stderr, "labd: recovered %d journaled job(s)\n", n)
	}
	srv := &http.Server{Addr: *addr, Handler: labSrv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()

	where := "in-memory cache only"
	if store != nil {
		where = "store " + store.Dir()
	}
	if jrnl != nil {
		where += ", journal on"
	}
	if fleet {
		where += fmt.Sprintf(", fleet of %d peers", len(store.Peers().PeerURLs()))
	}
	// Listen before announcing so the printed address is the resolved one
	// (with -addr :0 the kernel picks the port; the chaos harness parses
	// this line to find it).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "labd: listening on %s (%s)\n", ln.Addr(), where)
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "labd:", err)
	os.Exit(1)
}
