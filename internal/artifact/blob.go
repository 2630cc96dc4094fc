// Blob is the raw byte tier under Store: opaque envelope bytes addressed
// by hex SHA-256 keys. Store owns everything semantic — envelope
// verification, codecs, LRU accounting — so a backend only has to move
// bytes, and another backend plugs in by implementing the five methods of
// the Blob interface. DiskBlob (the local-disk layout) is the backend that
// ships; the tests' FaultBlob (faultblob_test.go) wraps any backend to
// inject storage faults into the same pooled read the store takes over
// DiskBlob. The fleet's peer tier (peer.go) is not a Blob: it only reads,
// after a local miss.
package artifact

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/faultpoint"
)

// BlobInfo describes one stored blob.
type BlobInfo struct {
	Key     string
	Size    int64
	ModTime time.Time
}

// Blob stores opaque artifact envelopes by validated hex key: exactly
// the methods Store calls. All methods must be safe for concurrent use and
// must not retain the data slice passed to Put past the call (Store hands
// it a pooled buffer).
type Blob interface {
	// GetPooled reads the whole blob into a buffer the backend may reuse.
	// The caller must not retain raw (or anything aliasing it) past its
	// call to release. An absent blob is an error that matches
	// fs.ErrNotExist; any other error is transient and leaves the blob
	// stored.
	GetPooled(key string) (raw []byte, release func(), err error)
	// Put stores data under key, replacing any previous blob atomically.
	Put(key string, data []byte) bool
	// Touch refreshes the blob's recency stamp so LRU order survives a
	// restart; a backend without durable recency does nothing.
	Touch(key string)
	// Delete removes the blob; true if it existed.
	Delete(key string) bool
	// List enumerates stored blobs in unspecified order.
	List() []BlobInfo
}

// DiskBlob is the local-disk backend: one file per artifact at
// dir/<key[:2]>/<key>.json, written via temp-file + rename so a crashed
// writer can leave stale temp files but never a half-written blob under a
// valid name.
type DiskBlob struct {
	dir string
}

// NewDiskBlob opens (creating if needed) a disk backend rooted at dir.
func NewDiskBlob(dir string) (*DiskBlob, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DiskBlob{dir: dir}, nil
}

// Dir returns the backend's root directory.
func (b *DiskBlob) Dir() string { return b.dir }

func (b *DiskBlob) path(key string) string {
	// Single-allocation concatenation; filepath.Join's cleaning pass costs
	// several allocations per call and nothing here needs cleaning (dir is
	// fixed, keys are validated hex).
	return b.dir + string(filepath.Separator) + key[:2] + string(filepath.Separator) + key + ".json"
}

// Get reads the whole blob into a fresh buffer. Store reads through
// GetPooled.
func (b *DiskBlob) Get(key string) ([]byte, bool) {
	if !validKey(key) {
		return nil, false
	}
	raw, err := os.ReadFile(b.path(key))
	if err != nil {
		return nil, false
	}
	return raw, true
}

// GetPooled reads the blob into a pooled buffer (see Blob).
func (b *DiskBlob) GetPooled(key string) ([]byte, func(), error) {
	if !validKey(key) {
		return nil, nil, fs.ErrNotExist
	}
	return readPooled(b.path(key))
}

// readBuf is one pooled read buffer with its release func, built once
// per buffer so a read allocates no closure.
type readBuf struct {
	b       []byte
	release func()
}

// readPool holds file-read buffers: a read runs once per artifact on the
// warm runner/labd path, and without reuse each one allocates (and
// garbage-collects) a blob-sized buffer.
var readPool sync.Pool

func init() {
	readPool.New = func() any {
		rb := new(readBuf)
		rb.release = func() { readPool.Put(rb) }
		return rb
	}
}

// readPooled reads the whole file into a pooled buffer. release returns
// the buffer to the pool; the caller must not retain raw (or anything
// aliasing it) past that call.
func readPooled(path string) (raw []byte, release func(), err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	rb := readPool.Get().(*readBuf)
	if need := int(info.Size()); cap(rb.b) < need {
		rb.b = make([]byte, need)
	} else {
		rb.b = rb.b[:need]
	}
	if _, err := io.ReadFull(f, rb.b); err != nil {
		rb.release()
		return nil, nil, err
	}
	return rb.b, rb.release, nil
}

// Put writes data under key via temp-file + fsync + rename + directory
// fsync. Failures read as false: the store is a cache and the caller still
// holds the value. The syncs are what make "atomic" hold across a crash:
// rename orders metadata, not data, so without the file sync a power cut
// shortly after Put could leave a fully-named artifact whose blocks never
// reached disk — an empty or partial file under a valid key — and without
// the directory sync the rename itself could vanish.
func (b *DiskBlob) Put(key string, data []byte) bool {
	if !validKey(key) {
		return false
	}
	path := b.path(key)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false
	}
	tmp, err := os.CreateTemp(dir, "tmp-*.json")
	if err != nil {
		return false
	}
	_, werr := tmp.Write(data)
	faultpoint.Hit("artifact.put") // chaos: crash mid-write, before the blob is durable
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil || os.Rename(tmp.Name(), path) != nil {
		os.Remove(tmp.Name())
		return false
	}
	syncDir(dir)
	return true
}

// syncDir fsyncs a directory so a just-renamed entry durably appears in
// it. Best-effort: a failed directory sync degrades to the pre-fix
// behaviour (the artifact may be lost in a crash, never corrupted).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// Stat reports the blob's size and mtime without reading it.
func (b *DiskBlob) Stat(key string) (BlobInfo, bool) {
	if !validKey(key) {
		return BlobInfo{}, false
	}
	info, err := os.Stat(b.path(key))
	if err != nil {
		return BlobInfo{}, false
	}
	return BlobInfo{Key: key, Size: info.Size(), ModTime: info.ModTime()}, true
}

// Delete removes the blob; true if it existed.
func (b *DiskBlob) Delete(key string) bool {
	if !validKey(key) {
		return false
	}
	return os.Remove(b.path(key)) == nil
}

// List scans the directory for valid-key blobs, cleaning up stray temp
// files from crashed writers as it goes. Foreign files are never indexed
// and never deleted.
func (b *DiskBlob) List() []BlobInfo {
	var all []BlobInfo
	_ = filepath.WalkDir(b.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil //nolint:nilerr // unreadable entries are simply not indexed
		}
		if strings.HasPrefix(d.Name(), "tmp-") {
			// A writer crashed between CreateTemp and rename; the stray
			// temp file is not an artifact and must not enter the index
			// (its key would not map back to its path, corrupting the
			// byte accounting on eviction). Checked before the extension
			// gate and removed whatever the suffix — a crash can leave a
			// temp name in any partially-written shape.
			_ = os.Remove(path)
			return nil
		}
		if filepath.Ext(path) != ".json" {
			return nil // foreign file: never index, never delete
		}
		key := d.Name()[:len(d.Name())-len(".json")]
		if !validKey(key) {
			return nil // foreign file: never index, never delete
		}
		info, ierr := d.Info()
		if ierr != nil {
			return nil
		}
		all = append(all, BlobInfo{Key: key, Size: info.Size(), ModTime: info.ModTime()})
		return nil
	})
	return all
}

// Touch bumps the blob's file mtime (an LRU recency hint for the next
// Open) so the LRU order survives restarts.
func (b *DiskBlob) Touch(key string) {
	if !validKey(key) {
		return
	}
	now := time.Now()
	_ = os.Chtimes(b.path(key), now, now)
}
