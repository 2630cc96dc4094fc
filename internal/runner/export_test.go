package runner

// HasCached reports whether key has a live in-memory cache entry —
// currently executing or, on a store-less engine, completed successfully.
// The tests use it to check which results the engine keeps.
func (e *Engine) HasCached(key string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.cache[key]
	return ok
}
