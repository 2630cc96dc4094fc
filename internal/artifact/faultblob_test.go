// Deterministic fault injection for the blob tier: FaultBlob wraps any
// Blob with a seeded schedule of realistic storage failures (errors after
// N ops, torn writes that report success, single-byte payload corruption,
// injected latency), and FaultTransport does the same for the peer-HTTP
// tier. Both are exercised by the conformance suite (a zero-fault wrapper
// must be fully transparent) and by the chaos tests, which assert the
// Store's integrity machinery turns every injected storage lie into a
// recomputable miss — never into wrong data.
package artifact_test

import (
	"errors"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/artifact"
)

// FaultConfig is a deterministic fault schedule. Every threshold counts
// ops on the wrapped blob from construction; zero disables that fault.
type FaultConfig struct {
	// Seed drives the corruption positions; the same seed and op sequence
	// injects byte-identical faults on every run.
	Seed int64
	// FailGetsAfter / FailPutsAfter: when > 0, every read (GetPooled) or
	// Put after the first N reports failure without touching the inner
	// blob. A failed read is a transient error, not fs.ErrNotExist.
	FailGetsAfter int64
	FailPutsAfter int64
	// TornWriteEvery: when > 0, every Nth Put stores only a prefix of the
	// data and still reports success — the on-disk shape of a writer that
	// died mid-write behind a lying disk cache.
	TornWriteEvery int64
	// CorruptEvery: when > 0, every Nth read flips one byte of the
	// returned data at a seeded offset.
	CorruptEvery int64
	// Latency is added to every read and Put.
	Latency time.Duration
}

// FaultStats counts the faults actually injected.
type FaultStats struct {
	Gets, Puts     int64
	FailedGets     int64
	FailedPuts     int64
	TornWrites     int64
	CorruptedReads int64
}

// FaultBlob wraps an inner Blob with a FaultConfig. Safe for concurrent
// use; the fault sequence is deterministic for a serialized op sequence.
type FaultBlob struct {
	inner artifact.Blob
	cfg   FaultConfig

	mu    sync.Mutex
	rng   *rand.Rand
	stats FaultStats
}

// NewFaultBlob wraps inner with the given fault schedule.
func NewFaultBlob(inner artifact.Blob, cfg FaultConfig) *FaultBlob {
	return &FaultBlob{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats returns the injected-fault counters so far.
func (f *FaultBlob) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

func (f *FaultBlob) delay() {
	if f.cfg.Latency > 0 {
		time.Sleep(f.cfg.Latency)
	}
}

// errInjectedRead is FaultBlob's read failure: a transient error, not
// fs.ErrNotExist, so the store keeps the blob and its index entry.
var errInjectedRead = errors.New("faultblob: injected read failure")

// GetPooled reads through to the inner blob's pooled read (the one Store
// takes), injecting scheduled read faults.
func (f *FaultBlob) GetPooled(key string) ([]byte, func(), error) {
	f.delay()
	f.mu.Lock()
	f.stats.Gets++
	if f.cfg.FailGetsAfter > 0 && f.stats.Gets > f.cfg.FailGetsAfter {
		f.stats.FailedGets++
		f.mu.Unlock()
		return nil, nil, errInjectedRead
	}
	corrupt := f.cfg.CorruptEvery > 0 && f.stats.Gets%f.cfg.CorruptEvery == 0
	f.mu.Unlock()

	data, release, err := f.inner.GetPooled(key)
	if err != nil || !corrupt || len(data) == 0 {
		return data, release, err
	}
	// Flip a byte in a private copy: the inner buffer is pooled and goes
	// back untouched.
	tampered := append([]byte(nil), data...)
	release()
	f.mu.Lock()
	tampered[f.rng.Intn(len(tampered))] ^= 0x01
	f.stats.CorruptedReads++
	f.mu.Unlock()
	return tampered, func() {}, nil
}

// Put writes through to the inner blob, injecting scheduled write faults.
func (f *FaultBlob) Put(key string, data []byte) bool {
	f.delay()
	f.mu.Lock()
	f.stats.Puts++
	if f.cfg.FailPutsAfter > 0 && f.stats.Puts > f.cfg.FailPutsAfter {
		f.stats.FailedPuts++
		f.mu.Unlock()
		return false
	}
	torn := f.cfg.TornWriteEvery > 0 && f.stats.Puts%f.cfg.TornWriteEvery == 0
	if torn {
		f.stats.TornWrites++
	}
	f.mu.Unlock()
	if torn {
		// Store a prefix and lie about it: the caller sees success, the
		// next reader must see an integrity miss, never a decode of junk.
		_ = f.inner.Put(key, data[:len(data)/2])
		return true
	}
	return f.inner.Put(key, data)
}

// Delete passes through.
func (f *FaultBlob) Delete(key string) bool { return f.inner.Delete(key) }

// List passes through.
func (f *FaultBlob) List() []artifact.BlobInfo { return f.inner.List() }

// Touch passes through; recency is not on the fault schedule.
func (f *FaultBlob) Touch(key string) { f.inner.Touch(key) }

// FaultTransport injects deterministic transport faults into the peer-HTTP
// tier: plug it into artifact.PeerOptions.Client to make a PeerBlob's wire flaky.
type FaultTransport struct {
	// Inner handles the requests that are allowed through; nil means
	// http.DefaultTransport.
	Inner http.RoundTripper
	// FailAfter: when > 0, every request after the first N fails with a
	// transport error (the "connection reset" class the retry policy and
	// the miss-never-wrong guarantees must absorb).
	FailAfter int64
	// Latency is added to every request.
	Latency time.Duration

	mu       sync.Mutex
	requests int64
	failed   int64
}

// Requests returns (total, failed) request counts.
func (t *FaultTransport) Requests() (total, failed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.requests, t.failed
}

func (t *FaultTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if t.Latency > 0 {
		time.Sleep(t.Latency)
	}
	t.mu.Lock()
	t.requests++
	fail := t.FailAfter > 0 && t.requests > t.FailAfter
	if fail {
		t.failed++
	}
	t.mu.Unlock()
	if fail {
		return nil, &faultTransportError{}
	}
	inner := t.Inner
	if inner == nil {
		inner = http.DefaultTransport
	}
	return inner.RoundTrip(r)
}

type faultTransportError struct{}

func (*faultTransportError) Error() string { return "faulttransport: injected transport failure" }
