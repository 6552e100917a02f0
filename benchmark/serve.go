package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"northstar/internal/experiments"
	"northstar/internal/serve"
)

// maxClientRate bounds the requests per second one client is expected
// to complete; it sizes the per-client duration buffers.
const maxClientRate = 50000

// missEvery places serve_mixed's misses: request i is a miss when
// i%missEvery == missEvery-1, so 20 hits go with each miss. That is the
// ratio of cmd/bench's serve section, which sends 1000 cached and 50
// uncached requests per client.
const missEvery = 21

// missScenario is the scenario serve_mixed's misses ask for, as
// cmd/bench's uncached requests do. Its model takes no seed, so a seed
// override changes the content address but not the table: every miss
// must return the golden table.
const missScenario = "E1"

// reqIDHeader pairs a traced request's client span with its handler
// span, so the round trip's self time excludes the handler.
const reqIDHeader = "X-Benchmark-Request"

// serveWorkload drives an in-process scenario service over HTTP from
// nproc closed-loop clients: each sends its next request when the last
// reply is in, as the repository's own callers of the service do
// (scripts/serve_smoke.sh and cmd/bench). Both mixes are built from
// those callers' requests; no outside traffic has been measured.
//
// serve_hot goes round-robin, in a seeded order, over the 10 registered
// scenarios in quick and full mode, all 20 keys warmed, so every timed
// request is a cache hit (cmd/bench's cached requests, in both modes).
//
// serve_mixed goes round-robin over the 10 quick scenarios, warmed as
// serve_smoke.sh's first pass does, and makes every missEvery-th
// request missScenario with a seed no earlier request used: a miss that
// runs the interpreter (cmd/bench's uncached requests) and, once setup
// has filled the default cache, inserts one result and evicts another.
// cmd/bench sends the two kinds in separate phases; interleaving them
// is this benchmark's assumption.
type serveWorkload struct {
	mixed bool

	srv    *serve.Server
	ts     *httptest.Server
	url    string
	client *http.Client
	hot    []*serveKey // in round-robin order
	// misses are serve_mixed's first misses, built in setup so the
	// traced replay checks the same keys the clients sent; later ones
	// are built as they are sent.
	misses   []*serveKey
	missBase int64 // seed of the first miss
	missSpec *experiments.ScenarioSpec
	missWant string // missScenario's golden table
	next     atomic.Int64

	traced  atomic.Pointer[tracer] // set while a traced loop runs
	reqID   atomic.Int64
	handled sync.Map // request id -> handler duration, traced only
}

// serveKey is one distinct request and what its response must be.
type serveKey struct {
	req  serve.Request
	body []byte
	fp   string // the benchmark's own Fingerprint of the request
	// want is the expected table: the golden file in quick mode, a
	// direct run made in setup in full mode.
	want  string
	first atomic.Pointer[[]byte] // first response body; later ones must equal it
}

func (w *serveWorkload) setup(e *env) error {
	rng := rand.New(rand.NewSource(e.cfg.Seed))
	if err := w.buildKeys(e, rng); err != nil {
		return err
	}
	w.srv = serve.New(serve.Config{CacheBytes: e.size.cacheBytes})
	var h http.Handler = w.srv.Handler()
	if e.cfg.Trace {
		h = &timedHandler{w: w, inner: h}
	}
	w.ts = httptest.NewServer(h)
	w.url = w.ts.URL + "/v1/scenario"
	clients := runtime.NumCPU()
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
	if w.mixed {
		w.fill(e, clients)
	}
	// One request per hot key, so every first response is checked
	// against its expected table before timing starts.
	var buf bytes.Buffer
	for _, k := range w.hot {
		w.request(e, 0, k, &buf, nil)
	}
	return nil
}

// fill sends serve_mixed's misses until the cache evicts, so that timed
// requests meet the full cache a long-running service reaches under
// this traffic: each timed miss then inserts one entry and evicts
// another, and memory stops growing with the number of requests. The
// fill calls the service's handler from nproc goroutines, without HTTP,
// to keep setup short; misses take the seeds below missBase. A failed
// request stops the fill, since failures may never fill the cache.
func (w *serveWorkload) fill(e *env, clients int) {
	h := w.srv.Handler()
	var n atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e.failed.Load() == 0 && w.srv.CacheStats().Evictions == 0 {
				k, err := w.newMiss(-n.Add(1))
				if err == nil {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/scenario", bytes.NewReader(k.body)))
					err = k.check(rec.Result(), rec.Body.Bytes())
				}
				e.op(err)
			}
		}()
	}
	wg.Wait()
}

// newKey describes one request for sc and the response it must get.
func newKey(sc *experiments.ScenarioSpec, quick bool, seed *int64, want string) (*serveKey, error) {
	k := &serveKey{req: serve.Request{ID: sc.ID, Quick: quick, Seed: seed}, want: want}
	var err error
	if k.body, err = json.Marshal(k.req); err != nil {
		return nil, err
	}
	if k.fp, err = sc.WithOverrides(nil, seed).Fingerprint(quick); err != nil {
		return nil, err
	}
	return k, nil
}

// buildKeys makes the hot keys in a seeded order and, for serve_mixed,
// the first misses, whose seeds start at a seeded base.
func (w *serveWorkload) buildKeys(e *env, rng *rand.Rand) error {
	for _, sc := range experiments.Scenarios() {
		golden, err := os.ReadFile(goldenPath(e.cfg.Root, sc.ID))
		if err != nil {
			return fmt.Errorf("serve reference: %w", err)
		}
		k, err := newKey(sc, true, nil, string(golden))
		if err != nil {
			return err
		}
		w.hot = append(w.hot, k)
		if sc.ID == missScenario {
			w.missSpec, w.missWant = sc, k.want
		}
		if w.mixed {
			continue
		}
		full, err := sc.Run(false)
		if err != nil {
			return fmt.Errorf("serve reference %s: %w", sc.ID, err)
		}
		if k, err = newKey(sc, false, nil, full.String()); err != nil {
			return err
		}
		w.hot = append(w.hot, k)
	}
	rng.Shuffle(len(w.hot), func(i, j int) { w.hot[i], w.hot[j] = w.hot[j], w.hot[i] })
	if !w.mixed {
		return nil
	}
	if w.missSpec == nil {
		return fmt.Errorf("no registered scenario %s", missScenario)
	}
	// Far above the seeds the scenarios declare, and distinct per run seed.
	w.missBase = 1_000_000 + rng.Int63n(1<<40)
	for j := 0; j < (e.size.replay+missEvery-1)/missEvery; j++ {
		k, err := w.newMiss(int64(j))
		if err != nil {
			return err
		}
		w.misses = append(w.misses, k)
	}
	return nil
}

// newMiss builds serve_mixed's j-th miss.
func (w *serveWorkload) newMiss(j int64) (*serveKey, error) {
	seed := w.missBase + j
	return newKey(w.missSpec, true, &seed, w.missWant)
}

// keyFor returns the key of the i-th request of a run.
func (w *serveWorkload) keyFor(i int64) (*serveKey, error) {
	n := int64(len(w.hot))
	if !w.mixed {
		return w.hot[i%n], nil
	}
	if i%missEvery != missEvery-1 {
		return w.hot[(i-i/missEvery)%n], nil
	}
	if j := i / missEvery; j < int64(len(w.misses)) {
		return w.misses[j], nil
	}
	return w.newMiss(i / missEvery)
}

func (w *serveWorkload) run(e *env, d time.Duration, tr *tracer) ([]time.Duration, time.Duration) {
	if tr == nil {
		return w.loop(e, d, nil)
	}
	before := w.srv.CacheStats()
	w.traced.Store(tr)
	durs, wall := w.loop(e, d, tr)
	w.traced.Store(nil)
	tr.add("cache.evictions", float64(w.srv.CacheStats().Evictions-before.Evictions))
	return durs, wall
}

func (w *serveWorkload) close() {
	w.client.CloseIdleConnections()
	w.ts.Close()
	w.srv.Close()
}

// loop sends the run's next requests from nproc clients until d has
// passed.
func (w *serveWorkload) loop(e *env, d time.Duration, tr *tracer) ([]time.Duration, time.Duration) {
	clients := runtime.NumCPU()
	per := make([][]time.Duration, clients)
	for c := range per {
		// Reserved up front: growing by doubling would make peak RSS
		// jump whenever throughput crosses a power of two.
		per[c] = make([]time.Duration, 0, int(d.Seconds()*maxClientRate))
	}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for len(per[c]) == 0 || time.Now().Before(deadline) {
				k, err := w.keyFor(w.next.Add(1) - 1)
				if err != nil {
					e.op(err)
					return
				}
				per[c] = append(per[c], w.request(e, c, k, &buf, tr))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	all := per[0]
	for _, p := range per[1:] {
		all = append(all, p...) // within the reserved capacity
	}
	return all, wall
}

// request sends one request, checks the reply and returns the time from
// sending to the last body byte.
func (w *serveWorkload) request(e *env, client int, k *serveKey, buf *bytes.Buffer, tr *tracer) time.Duration {
	req, err := http.NewRequest(http.MethodPost, w.url, bytes.NewReader(k.body))
	if err != nil {
		e.op(err)
		return 0
	}
	req.Header.Set("Content-Type", "application/json")
	var id int64
	if tr != nil {
		id = w.reqID.Add(1)
		req.Header.Set(reqIDHeader, strconv.FormatInt(id, 10))
	}
	start := time.Now()
	resp, err := w.client.Do(req)
	if err == nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(start)
	if err == nil {
		err = k.check(resp, buf.Bytes())
	}
	e.op(err)
	if tr != nil && err == nil {
		var handler time.Duration
		if v, ok := w.handled.LoadAndDelete(id); ok {
			handler = v.(time.Duration)
		}
		tr.span("http_roundtrip", tidClient+client, start, d, handler)
		tr.add("cache.requests", 1)
		switch resp.Header.Get(serve.CacheHeader) {
		case "hit":
			tr.add("cache.hits", 1)
		case "collapsed":
			tr.add("cache.collapsed", 1)
		}
	}
	return d
}

// check verifies one reply: status 200, the content address the
// benchmark computed, and a body byte-identical to the key's first
// reply. The first reply is decoded and checked field by field, its
// table against the expected one.
func (k *serveKey) check(resp *http.Response, body []byte) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", k.body, resp.StatusCode, body)
	}
	if got := resp.Header.Get(serve.KeyHeader); got != k.fp {
		return fmt.Errorf("%s: key %s, want %s", k.body, got, k.fp)
	}
	if first := k.first.Load(); first != nil {
		if !bytes.Equal(body, *first) {
			return fmt.Errorf("%s: response differs from the first response for its key", k.body)
		}
		return nil
	}
	var r serve.Response
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%s: %w", k.body, err)
	}
	if r.Key != k.fp || r.ID != k.req.ID || r.Quick != k.req.Quick {
		return fmt.Errorf("%s: response names (%s, %s, quick=%v)", k.body, r.ID, r.Key, r.Quick)
	}
	if r.Table != k.want {
		return fmt.Errorf("%s: table differs from the reference", k.body)
	}
	cp := append([]byte(nil), body...)
	if !k.first.CompareAndSwap(nil, &cp) && !bytes.Equal(body, *k.first.Load()) {
		return fmt.Errorf("%s: response differs from the first response for its key", k.body)
	}
	return nil
}

// timedHandler wraps the service handler in traced runs: while a
// traced loop runs it records a handler span per request and leaves
// the duration for the client to pair with its round trip.
type timedHandler struct {
	w     *serveWorkload
	inner http.Handler
}

func (h *timedHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	tr := h.w.traced.Load()
	if tr == nil {
		h.inner.ServeHTTP(rw, r)
		return
	}
	start := time.Now()
	h.inner.ServeHTTP(rw, r)
	d := time.Since(start)
	tr.span("handler", tidHandler, start, d, 0)
	if id, err := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64); err == nil {
		h.w.handled.Store(id, d)
	}
}

// replay sends a run's first requests through the service's stages as
// public functions, one span each: decode into serve.Request, resolve
// (WithOverrides + Validate), Fingerprint, and for the first replayRuns
// distinct keys RunOn, Table.String and json.Marshal of the
// serve.Response. Each replayed body must equal what the service sent
// for that key, and the fingerprint what the benchmark computed.
func (w *serveWorkload) replay(e *env, tr *tracer) {
	seen := make(map[*serveKey]bool)
	for i := 0; i < e.size.replay; i++ {
		k, err := w.keyFor(int64(i))
		if err != nil {
			e.op(err)
			return
		}
		run := !seen[k] && len(seen) < e.size.replayRuns
		if run {
			seen[k] = true
		}
		e.op(w.replayOne(k, run, tr))
	}
}

func (w *serveWorkload) replayOne(k *serveKey, run bool, tr *tracer) error {
	stage := func(name string, start time.Time) time.Time {
		now := time.Now()
		tr.span(name, tidReplay, start, now.Sub(start), 0)
		return now
	}
	t := time.Now()
	dec := json.NewDecoder(bytes.NewReader(k.body))
	dec.DisallowUnknownFields()
	var req serve.Request
	err := dec.Decode(&req)
	t = stage("decode", t)
	if err != nil {
		return err
	}
	sc, err := experiments.ScenarioByID(req.ID)
	if err != nil {
		return err
	}
	resolved := sc.WithOverrides(req.Params, req.Seed)
	err = resolved.Validate()
	t = stage("resolve", t)
	if err != nil {
		return err
	}
	fp, err := resolved.Fingerprint(req.Quick)
	t = stage("fingerprint", t)
	if err != nil {
		return err
	}
	if fp != k.fp {
		return fmt.Errorf("%s: replayed fingerprint %s, want %s", k.body, fp, k.fp)
	}
	if !run {
		return nil
	}
	tab, err := resolved.RunOn(nil, req.Quick)
	t = stage("run", t)
	if err != nil {
		return err
	}
	text := tab.String()
	t = stage("render", t)
	enc, err := json.Marshal(serve.Response{
		ID: resolved.ID, Key: fp, Quick: req.Quick, Table: text,
		Metrics: serve.RunMetrics{
			Model: resolved.Model, Rows: len(tab.Rows), Columns: len(tab.Columns), TableBytes: len(text),
		},
	})
	stage("encode", t)
	if err != nil {
		return err
	}
	if text != k.want {
		return fmt.Errorf("%s: replayed table differs from the reference", k.body)
	}
	if first := k.first.Load(); first != nil && !bytes.Equal(append(enc, '\n'), *first) {
		return errors.New(string(k.body) + ": the service's response differs from a direct run")
	}
	return nil
}
