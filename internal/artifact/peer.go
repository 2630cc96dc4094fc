package artifact

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"
)

// PeerBlob is the fleet's peer artifact tier: a read-only fetch of
// artifact envelopes from other labd nodes over
// GET /v1/artifacts/{key}?envelope=1, the one route peers share. It is
// not a Blob backend; Store consults it only after a local miss. Every
// fetch is re-verified on receipt (openEnvelope: schema, key match,
// payload SHA-256) before the bytes are trusted, which turns corruption
// on the wire or on the peer's disk into a miss. It does not detect a
// forgery: a peer that re-hashes altered bytes passes the check, so the
// peers named on -peers are trusted by configuration (DESIGN.md §13).
//
// Failure policy (a dead peer must never fail a job): each attempt is
// bounded by Timeout; a transport error gets exactly one retry after a
// jittered backoff (riding out a node mid-restart); anything else fails
// over to the next peer, and exhausting the list is a plain miss — the
// caller recomputes locally.
type PeerBlob struct {
	peers  []string // normalized base URLs, e.g. "http://10.0.0.2:8321"
	client *http.Client
	opt    PeerOptions

	hits, misses, errors atomic.Uint64
}

// PeerOptions tunes a PeerBlob.
type PeerOptions struct {
	// Timeout bounds each HTTP attempt. Default 5s.
	Timeout time.Duration
	// RetryBackoff is the base delay before the single retry; the actual
	// delay adds up to 100% jitter so a fleet that lost a node doesn't
	// retry in lockstep. Default 50ms.
	RetryBackoff time.Duration
	// Client overrides the HTTP client (tests). Default: a dedicated
	// client with keep-alives, so repeated peer fetches reuse connections.
	Client *http.Client
}

// PeerStats is a snapshot of the peer tier's fetch counters; lab.Server
// surfaces it under "fleet" on /v1/status and as labd_peer_fetch_* on
// /metrics.
type PeerStats struct {
	Peers  []string `json:"peers"`
	Hits   uint64   `json:"hits"`
	Misses uint64   `json:"misses"`
	Errors uint64   `json:"errors"`
}

// NewPeerBlob builds a peer backend over the given base URLs (scheme
// optional; "host:port" becomes "http://host:port").
func NewPeerBlob(peers []string, opt PeerOptions) *PeerBlob {
	if opt.Timeout <= 0 {
		opt.Timeout = 5 * time.Second
	}
	if opt.RetryBackoff <= 0 {
		opt.RetryBackoff = 50 * time.Millisecond
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{}
	}
	norm := make([]string, 0, len(peers))
	for _, p := range peers {
		if p = NormalizePeerURL(p); p != "" {
			norm = append(norm, p)
		}
	}
	return &PeerBlob{peers: norm, client: client, opt: opt}
}

// NormalizePeerURL canonicalizes a peer address: default scheme http,
// no trailing slash. Empty input stays empty.
func NormalizePeerURL(p string) string {
	for len(p) > 0 && p[len(p)-1] == '/' {
		p = p[:len(p)-1]
	}
	if p == "" {
		return ""
	}
	if !hasScheme(p) {
		p = "http://" + p
	}
	return p
}

func hasScheme(p string) bool {
	for i := 0; i < len(p); i++ {
		switch p[i] {
		case ':':
			return i+2 < len(p) && p[i+1] == '/' && p[i+2] == '/'
		case '/', '.':
			return false
		}
	}
	return false
}

// PeerURLs returns the normalized peer list.
func (p *PeerBlob) PeerURLs() []string { return p.peers }

// Stats returns a snapshot of the fetch counters.
func (p *PeerBlob) Stats() PeerStats {
	return PeerStats{
		Peers:  p.peers,
		Hits:   p.hits.Load(),
		Misses: p.misses.Load(),
		Errors: p.errors.Load(),
	}
}

// Get fetches key's envelope from the first peer that has it, verifying
// integrity on receipt. A peer that errors (transport, non-2xx other than
// 404, failed verification) counts toward Errors and is skipped; a clean
// 404 just moves on. Exhausting the list counts one miss.
func (p *PeerBlob) Get(key string) ([]byte, bool) {
	raw, _, ok := p.get(key)
	return raw, ok
}

// get is Get that also returns the envelope it parsed and verified, so
// the store checks a peer's bytes once.
func (p *PeerBlob) get(key string) ([]byte, envelope, bool) {
	if !validKey(key) {
		return nil, envelope{}, false
	}
	for _, peer := range p.peers {
		raw, status, err := p.fetch(peer, key)
		if err != nil {
			p.errors.Add(1)
			continue
		}
		if status == http.StatusNotFound {
			continue
		}
		if status != http.StatusOK {
			p.errors.Add(1)
			continue
		}
		env, err := openEnvelope(key, raw)
		if err != nil {
			// The peer served bytes that fail the integrity gate: never
			// trust them, never persist them.
			p.errors.Add(1)
			continue
		}
		p.hits.Add(1)
		return raw, env, true
	}
	p.misses.Add(1)
	return nil, envelope{}, false
}

// fetch GETs one peer's envelope with the timeout/retry policy: a
// transport error (connection refused, timeout) earns exactly one retry
// after a jittered backoff; HTTP-level failures don't — the peer is up
// and has given its answer.
func (p *PeerBlob) fetch(peer, key string) ([]byte, int, error) {
	url := peer + "/v1/artifacts/" + key + "?envelope=1"
	raw, status, err := p.do(url)
	if err != nil {
		time.Sleep(p.backoff())
		raw, status, err = p.do(url)
	}
	return raw, status, err
}

func (p *PeerBlob) backoff() time.Duration {
	base := p.opt.RetryBackoff
	return base + time.Duration(rand.Int63n(int64(base)+1))
}

func (p *PeerBlob) do(url string) ([]byte, int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), p.opt.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	return raw, resp.StatusCode, nil
}
