package lab

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/artifact"
	"repro/internal/runner"
)

// LocalFleet boots n in-process labd nodes on loopback listeners, wired
// into one static fleet (every node gets the same peer list, all n URLs,
// as labd's -peers would be; NewFleetEngine drops each node's own). It is
// the harness behind BenchmarkFleet and the fleet tests; the CI
// fleet-smoke job does the same thing with real labd processes.
type LocalFleet struct {
	Nodes []*LocalNode
}

// LocalNode is one in-process fleet member with its engine and store
// exposed so callers can read the per-node execution and cache counters
// the fleet's execution checks sum.
type LocalNode struct {
	URL    string
	Engine *runner.Engine
	Store  *artifact.Store
	Server *Server

	srv *http.Server
	ln  net.Listener
}

// LocalFleetOptions tunes StartLocalFleet.
type LocalFleetOptions struct {
	// Workers per node (<= 0: GOMAXPROCS).
	Workers int
	// StoreDir returns node i's artifact store directory (required —
	// fleet mode needs a store).
	StoreDir func(i int) string
	// StoreMaxBytes bounds each node's store (<= 0: unbounded).
	StoreMaxBytes int64
	// FetchTimeout bounds each peer artifact fetch attempt (0: default).
	FetchTimeout time.Duration
	// Service options applied to every node.
	Opts Options
}

// StartLocalFleet starts the fleet. Listeners are bound first so every
// node knows the full URL set before any server starts.
func StartLocalFleet(n int, o LocalFleetOptions) (*LocalFleet, error) {
	if o.StoreDir == nil {
		return nil, fmt.Errorf("lab: LocalFleetOptions.StoreDir is required")
	}
	f := &LocalFleet{}
	urls := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	for i := 0; i < n; i++ {
		eng, st, err := NewFleetEngine(o.Workers, o.StoreDir(i), o.StoreMaxBytes, urls[i], urls, o.FetchTimeout)
		if err != nil {
			for _, ln := range lns {
				ln.Close()
			}
			f.Close()
			return nil, err
		}
		sv := NewServerOpts(eng, st, o.Opts)
		node := &LocalNode{URL: urls[i], Engine: eng, Store: st, Server: sv,
			srv: &http.Server{Handler: sv.Handler()}, ln: lns[i]}
		f.Nodes = append(f.Nodes, node)
		go node.srv.Serve(lns[i]) //nolint:errcheck // ends with ErrServerClosed on Close
	}
	return f, nil
}

// URLs returns the node base URLs in start order.
func (f *LocalFleet) URLs() []string {
	out := make([]string, len(f.Nodes))
	for i, n := range f.Nodes {
		out[i] = n.URL
	}
	return out
}

// Executions sums the per-node engine execution counters — the left-hand
// side of the fleet's execution checks. Killed nodes still count:
// their past executions happened.
func (f *LocalFleet) Executions() uint64 {
	var sum uint64
	for _, n := range f.Nodes {
		sum += n.Engine.Executions()
	}
	return sum
}

// Kill hard-stops node i (listener and established connections), leaving
// the rest of the fleet to discover the dead peer through timeouts — the
// failure the dead-peer failover test injects mid-matrix.
func (f *LocalFleet) Kill(i int) {
	n := f.Nodes[i]
	if n.srv != nil {
		n.srv.Close()
		n.srv = nil
	}
}

// Close stops every node.
func (f *LocalFleet) Close() {
	for i := range f.Nodes {
		f.Kill(i)
	}
}
