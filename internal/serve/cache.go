// The result cache: a byte-bounded LRU keyed by content address, with
// singleflight collapsing of concurrent identical computations. Values
// are complete response bodies — every body is a pure function of its
// key (the spec fingerprint), so serving a cached body is
// indistinguishable from recomputing it.
package serve

import (
	"container/list"
	"fmt"
	"sync"
)

// source says how a getOrCompute call obtained its body.
type source int

const (
	srcMiss      source = iota // this call computed the body
	srcHit                     // the body was already cached
	srcCollapsed               // an in-flight identical computation was joined
)

func (s source) String() string {
	switch s {
	case srcHit:
		return "hit"
	case srcCollapsed:
		return "collapsed"
	default:
		return "miss"
	}
}

// resultCache is the content-addressed store. All state is behind one
// mutex; compute functions run outside it, so a slow scenario never
// blocks hits on other keys.
type resultCache struct {
	mu      sync.Mutex
	budget  int64                    // byte budget over stored body lengths
	bytes   int64                    // current stored bytes
	order   *list.List               // front = most recently used
	entries map[string]*list.Element // key -> element holding *cacheEntry
	flights map[string]*flight       // key -> in-progress computation

	stats CacheStats
}

// cacheEntry is one stored body.
type cacheEntry struct {
	key  string
	body []byte
}

// computePanic is the error a computation that panicked leaves for its
// caller and every joined waiter: a server fault, not the request's.
type computePanic struct{ value any }

func (p *computePanic) Error() string {
	return fmt.Sprintf("serve: scenario computation panicked: %v", p.value)
}

// flight is one in-progress computation other requests can join.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// CacheStats is a point-in-time view of the cache counters. Hits,
// Misses, Collapsed, and Evictions are cumulative; Entries and Bytes
// are current occupancy. Collapsed counts requests that joined an
// in-flight computation instead of starting their own — it increments
// at join time, before the leader finishes.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Collapsed int64
	Evictions int64
	Entries   int64
	Bytes     int64
}

func newResultCache(budget int64) *resultCache {
	return &resultCache{
		budget:  budget,
		order:   list.New(),
		entries: make(map[string]*list.Element),
		flights: make(map[string]*flight),
	}
}

// Stats returns the current counters.
func (c *resultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = int64(len(c.entries))
	st.Bytes = c.bytes
	return st
}

// getOrCompute returns the body for key, computing it at most once
// across concurrent callers: a cached body is returned immediately, a
// key with a computation in flight joins it (collapsed), and otherwise
// this caller becomes the leader and runs compute. Successful bodies
// are inserted into the LRU; errors are returned to every joined caller
// and never cached, so a transient failure does not poison the key.
func (c *resultCache) getOrCompute(key string, compute func() ([]byte, error)) (body []byte, src source, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.stats.Hits++
		body = el.Value.(*cacheEntry).body
		c.mu.Unlock()
		return body, srcHit, nil
	}
	if f, ok := c.flights[key]; ok {
		c.stats.Collapsed++
		c.mu.Unlock()
		<-f.done
		return f.body, srcCollapsed, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.stats.Misses++
	c.mu.Unlock()

	// Release the flight even if compute panics: the panic becomes the
	// error of this call and of every joined waiter, nothing is cached,
	// and the next request for the key computes afresh.
	defer func() {
		if r := recover(); r != nil {
			f.body, f.err = nil, &computePanic{value: r}
		}
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			c.insert(key, f.body)
		}
		c.mu.Unlock()
		close(f.done)
		body, src, err = f.body, srcMiss, f.err
	}()
	f.body, f.err = compute()
	return
}

// insert stores body under key and evicts from the LRU tail until the
// byte budget holds again. A body larger than the whole budget is not
// stored at all — evicting everything else to fail anyway would just
// churn the cache. Called with c.mu held.
func (c *resultCache) insert(key string, body []byte) {
	if int64(len(body)) > c.budget {
		return
	}
	if el, ok := c.entries[key]; ok {
		// A racing leader for the same key already stored an identical
		// body (bodies are pure functions of the key); keep it fresh.
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, body: body})
	c.bytes += int64(len(body))
	for c.bytes > c.budget {
		tail := c.order.Back()
		if tail == nil {
			break
		}
		ent := tail.Value.(*cacheEntry)
		c.order.Remove(tail)
		delete(c.entries, ent.key)
		c.bytes -= int64(len(ent.body))
		c.stats.Evictions++
	}
}
