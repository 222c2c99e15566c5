// Package server implements the multi-tenant HTTP query service behind
// cmd/xmserve: per-tenant Database-backed sessions with a prepared-
// statement cache keyed by mmql text, catalog byte budgets, per-tenant
// metrics registries, concurrency admission control, and request
// deadlines that flow into the engine's deadline-aware morsel scheduler.
package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/mmql"
)

// prepCache is one tenant's prepared-statement cache: an LRU over mmql
// statement text. A miss prepares under a per-entry once, so concurrent
// first requests for one statement share a single plan resolution instead
// of racing N of them; a hit is a map lookup plus a list splice. Entries
// whose preparation failed are not retained — the next request retries,
// since the failure may have been contextual (a cancelled context).
type prepCache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // front = most recently used; values are *prepEntry
	entries map[string]*list.Element
	hits    atomic.Int64
	misses  atomic.Int64
}

type prepEntry struct {
	key  string
	once sync.Once
	p    *mmql.Prepared
	err  error
}

func newPrepCache(capacity int) *prepCache {
	if capacity <= 0 {
		capacity = 64
	}
	return &prepCache{cap: capacity, lru: list.New(), entries: make(map[string]*list.Element)}
}

// get returns st prepared by build. EXPLAIN statements render or trace
// one execution and VIA baseline statements freeze no plan, so those are
// built per request and reported as cache "bypass". Any other statement
// is cached under key and built at most once per cache generation; cache
// reports "hit" when an entry already existed (even if its build is still
// in flight on another goroutine — this caller reuses it) and "miss"
// otherwise.
func (c *prepCache) get(key string, st *mmql.Statement, build func() (*mmql.Prepared, error)) (p *mmql.Prepared, cache string, err error) {
	if st.Explain || st.Algo == "baseline" {
		p, err = build()
		return p, "bypass", err
	}
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		c.lru.MoveToFront(el)
		c.hits.Add(1)
	} else {
		el = c.lru.PushFront(&prepEntry{key: key})
		c.entries[key] = el
		c.misses.Add(1)
		if c.lru.Len() > c.cap {
			oldest := c.lru.Back()
			c.lru.Remove(oldest)
			delete(c.entries, oldest.Value.(*prepEntry).key)
		}
	}
	e := el.Value.(*prepEntry)
	c.mu.Unlock()

	cache = "miss"
	if ok {
		cache = "hit"
	}
	e.once.Do(func() { e.p, e.err = build() })
	if e.err != nil {
		// Drop the failed entry (if it is still the cached one) so a
		// later request rebuilds rather than replaying a stale error.
		c.mu.Lock()
		if cur, ok := c.entries[key]; ok && cur == el {
			c.lru.Remove(cur)
			delete(c.entries, key)
		}
		c.mu.Unlock()
		return nil, cache, e.err
	}
	return e.p, cache, nil
}

// PrepCacheStats is a prepared-statement cache snapshot, served by
// /tenants and /debug/catalog.
type PrepCacheStats struct {
	Capacity int   `json:"capacity"`
	Entries  int   `json:"entries"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
}

func (c *prepCache) stats() PrepCacheStats {
	c.mu.Lock()
	n := c.lru.Len()
	c.mu.Unlock()
	return PrepCacheStats{Capacity: c.cap, Entries: n, Hits: c.hits.Load(), Misses: c.misses.Load()}
}
