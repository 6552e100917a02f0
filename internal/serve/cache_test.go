package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fill returns a body of n bytes for key-sized accounting tests.
func fill(b byte, n int) []byte {
	return bytes.Repeat([]byte{b}, n)
}

// mustGet runs getOrCompute with a compute that must not be called.
func mustGet(t *testing.T, c *resultCache, key string) ([]byte, source) {
	t.Helper()
	body, src, err := c.getOrCompute(key, func() ([]byte, error) {
		t.Fatalf("key %q: compute ran on what should be a hit", key)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return body, src
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(100)
	put := func(key string, body []byte) {
		t.Helper()
		_, src, err := c.getOrCompute(key, func() ([]byte, error) { return body, nil })
		if err != nil || src != srcMiss {
			t.Fatalf("put %q: src=%v err=%v", key, src, err)
		}
	}

	put("a", fill('a', 40))
	put("b", fill('b', 40))
	if st := c.Stats(); st.Entries != 2 || st.Bytes != 80 || st.Evictions != 0 {
		t.Fatalf("after two inserts: %+v", st)
	}

	// Touch a so b becomes least recently used, then overflow: b must go.
	mustGet(t, c, "a")
	put("c", fill('c', 40))
	st := c.Stats()
	if st.Entries != 2 || st.Bytes != 80 || st.Evictions != 1 {
		t.Fatalf("after overflow: %+v", st)
	}
	if _, src := mustGet(t, c, "a"); src != srcHit {
		t.Error("recently used entry was evicted")
	}
	if _, src := mustGet(t, c, "c"); src != srcHit {
		t.Error("new entry was evicted")
	}
	recomputed := false
	c.getOrCompute("b", func() ([]byte, error) { recomputed = true; return fill('b', 40), nil })
	if !recomputed {
		t.Error("LRU victim was still served from cache")
	}
}

func TestCacheOversizedBodyNotStored(t *testing.T) {
	c := newResultCache(100)
	body, src, err := c.getOrCompute("big", func() ([]byte, error) { return fill('x', 101), nil })
	if err != nil || src != srcMiss || len(body) != 101 {
		t.Fatalf("oversized compute: src=%v err=%v len=%d", src, err, len(body))
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("body larger than the whole budget was stored: %+v", st)
	}
	// The caller still got the body; only caching is skipped.
	c.getOrCompute("big", func() ([]byte, error) { return fill('x', 101), nil })
	if st := c.Stats(); st.Misses != 2 {
		t.Errorf("oversized key should recompute every time: %+v", st)
	}
}

// TestCacheSingleflight makes the collapse deterministic: the leader's
// compute blocks on a gate while N followers arrive; every follower
// must be counted as collapsed before the gate opens, and all callers
// get bit-identical bodies from exactly one computation.
func TestCacheSingleflight(t *testing.T) {
	const followers = 4
	c := newResultCache(1 << 20)
	gate := make(chan struct{})
	computes := 0

	var wg sync.WaitGroup
	results := make([][]byte, followers+1)
	sources := make([]source, followers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], sources[0], _ = c.getOrCompute("k", func() ([]byte, error) {
			computes++
			<-gate
			return fill('k', 64), nil
		})
	}()

	// Wait for the leader to take the flight slot, then pile on.
	waitFor(t, func() bool { return c.Stats().Misses == 1 })
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], sources[i], _ = c.getOrCompute("k", func() ([]byte, error) {
				t.Error("follower became a second leader")
				return nil, nil
			})
		}(i)
	}

	// Collapse is counted at join time — observable before completion.
	waitFor(t, func() bool { return c.Stats().Collapsed == followers })
	close(gate)
	wg.Wait()

	if computes != 1 {
		t.Fatalf("compute ran %d times", computes)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Collapsed != followers || st.Entries != 1 {
		t.Errorf("stats after collapse: %+v", st)
	}
	leaders, collapsed := 0, 0
	for i, src := range sources {
		if !bytes.Equal(results[i], results[0]) {
			t.Errorf("caller %d saw a different body", i)
		}
		switch src {
		case srcMiss:
			leaders++
		case srcCollapsed:
			collapsed++
		}
	}
	if leaders != 1 || collapsed != followers {
		t.Errorf("leaders=%d collapsed=%d", leaders, collapsed)
	}
}

// TestCacheErrorsNeverCached: a failing compute propagates its error to
// the leader and every joined caller, leaves no entry behind, and the
// next request for the key computes afresh.
func TestCacheErrorsNeverCached(t *testing.T) {
	c := newResultCache(1 << 20)
	boom := errors.New("model refused")
	gate := make(chan struct{})

	var wg sync.WaitGroup
	errs := make([]error, 3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, errs[0] = c.getOrCompute("k", func() ([]byte, error) { <-gate; return nil, boom })
	}()
	waitFor(t, func() bool { return c.Stats().Misses == 1 })
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.getOrCompute("k", func() ([]byte, error) { return nil, boom })
		}(i)
	}
	waitFor(t, func() bool { return c.Stats().Collapsed == 2 })
	close(gate)
	wg.Wait()

	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("caller %d: err=%v, want the leader's error", i, err)
		}
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("failed computation was cached: %+v", st)
	}

	// The key is not poisoned: a retry computes and can succeed.
	body, src, err := c.getOrCompute("k", func() ([]byte, error) { return fill('k', 8), nil })
	if err != nil || src != srcMiss || len(body) != 8 {
		t.Errorf("retry after failure: src=%v err=%v", src, err)
	}
}

// TestCachePanicReleasesKey: a compute that panics (a model bug) must
// not strand its key. getOrCompute returns an error to the leader and to
// every joined waiter instead of letting the panic escape, caches
// nothing, and the next request for the key computes afresh rather than
// blocking on the dead flight.
func TestCachePanicReleasesKey(t *testing.T) {
	c := newResultCache(1 << 20)
	gate := make(chan struct{})
	errs := make(chan error, 2)
	call := func(compute func() ([]byte, error)) {
		defer func() {
			if r := recover(); r != nil {
				errs <- fmt.Errorf("panic escaped getOrCompute: %v", r)
			}
		}()
		_, _, err := c.getOrCompute("k", compute)
		errs <- err
	}
	go call(func() ([]byte, error) { <-gate; panic("model bug") })
	waitFor(t, func() bool { return c.Stats().Misses == 1 })
	go call(func() ([]byte, error) { t.Error("joiner became a second leader"); return nil, nil })
	waitFor(t, func() bool { return c.Stats().Collapsed == 1 })
	close(gate)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "model bug") ||
				strings.Contains(err.Error(), "escaped") {
				t.Errorf("caller got err=%v, want an error carrying the panic", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a caller of the panicked computation never returned")
		}
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("panicked computation was cached: %+v", st)
	}

	retry := make(chan error, 1)
	go func() {
		_, src, err := c.getOrCompute("k", func() ([]byte, error) { return fill('k', 8), nil })
		if err == nil && src != srcMiss {
			err = fmt.Errorf("retry source %v, want miss", src)
		}
		retry <- err
	}()
	select {
	case err := <-retry:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the key is still held by the panicked computation")
	}
}

// TestComputePanicIs500: a request whose computation panicked is
// answered 500, a server fault, not the 422 of a model's refusal. The
// request joins an in-flight computation of its own key that panics,
// which is exactly what a panicking model leaves the handler.
func TestComputePanicIs500(t *testing.T) {
	s := New(Config{PoolWorkers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resolved, _, err := s.resolve(&Request{ID: "E1", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	key, err := resolved.Fingerprint(true)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	go s.cache.getOrCompute(key, func() ([]byte, error) { <-gate; panic("model bug") })
	waitFor(t, func() bool { return s.cache.Stats().Misses == 1 })
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/scenario", "application/json",
			strings.NewReader(`{"id":"E1","quick":true}`))
		if err != nil {
			t.Error(err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	waitFor(t, func() bool { return s.cache.Stats().Collapsed == 1 })
	close(gate)
	if got := <-status; got != http.StatusInternalServerError {
		t.Fatalf("status %d for a panicked computation, want 500", got)
	}
}

// waitFor polls cond with a deadline; the singleflight tests use it to
// sequence goroutines on observable counter state rather than sleeps.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCacheDistinctKeysDoNotCollapse guards the inverse property: work
// on different keys proceeds independently even while one key's
// computation is blocked.
func TestCacheDistinctKeysDoNotCollapse(t *testing.T) {
	c := newResultCache(1 << 20)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.getOrCompute("slow", func() ([]byte, error) { <-gate; return fill('s', 4), nil })
	}()
	waitFor(t, func() bool { return c.Stats().Misses == 1 })

	// A different key must not queue behind the blocked flight.
	done := make(chan struct{})
	go func() {
		defer close(done)
		body, src, err := c.getOrCompute("fast", func() ([]byte, error) { return fill('f', 4), nil })
		if err != nil || src != srcMiss || len(body) != 4 {
			t.Errorf("fast key: src=%v err=%v", src, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("distinct key blocked behind an unrelated in-flight computation")
	}
	close(gate)
	wg.Wait()
	if st := c.Stats(); st.Collapsed != 0 || st.Misses != 2 {
		t.Errorf("stats: %+v", st)
	}
}

func Example_sourceString() {
	fmt.Println(srcMiss, srcHit, srcCollapsed)
	// Output: miss hit collapsed
}
