// Package serve is the scenario service behind `northstar serve`: a
// long-running HTTP/JSON daemon that evaluates ScenarioSpec requests —
// the wire format cmd/experiments -describe dumps — on request-scoped
// kernels budgeted through a server-owned mc.Pool, in front of a
// content-addressed result cache.
//
// Every result is a pure function of (spec, params, seed, mode), so the
// cache keys responses by ScenarioSpec.Fingerprint — the sha256 of the
// resolved spec's canonical JSON plus a mode tag, the same hashing
// discipline as the golden MANIFEST — with singleflight collapsing of
// concurrent identical requests and a byte-bounded LRU over response
// bodies. A response body is deterministic for its key (cache status
// and timing travel in headers, never in the body), which is what makes
// the service byte-exactly testable against the committed golden
// corpus.
//
// Endpoints:
//
//	POST /v1/scenario            evaluate a spec (by registered id or inline)
//	GET  /v1/scenarios           list the registered scenario inventory
//	GET  /v1/scenario/{id}/spec  a registered spec's JSON (same bytes as -describe)
//	GET  /healthz                liveness probe
//	GET  /varz                   northstar-metrics/v2 registry dump (serve scope)
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"northstar/internal/experiments"
	"northstar/internal/mc"
	"northstar/internal/obs"
	"northstar/internal/stats"
)

// Defaults for Config zero values.
const (
	DefaultCacheBytes   = 64 << 20 // 64 MiB of cached response bodies
	DefaultMaxBodyBytes = 1 << 20  // 1 MiB request bodies
)

// CacheHeader carries the cache disposition of a response ("hit",
// "miss", or "collapsed") — in a header, not the body, so bodies stay
// byte-identical per key.
const CacheHeader = "X-Northstar-Cache"

// KeyHeader carries the content address of the response body.
const KeyHeader = "X-Northstar-Key"

// Config configures a Server. The zero value serves the registered
// scenario inventory with default limits.
type Config struct {
	// CacheBytes is the result-cache byte budget over stored response
	// bodies; <= 0 means DefaultCacheBytes.
	CacheBytes int64
	// PoolWorkers is the execution width of the server-owned mc pool
	// that request interpretations shard onto: 1 means sequential, n
	// means n-1 helper goroutines, and <= 0 means GOMAXPROCS. Results
	// are bit-identical at any width; this only budgets CPU.
	PoolWorkers int
	// MaxBodyBytes caps request bodies; <= 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
}

// Request is the POST /v1/scenario body: exactly one of ID (a
// registered scenario) or Spec (an inline ScenarioSpec), plus optional
// parameter and seed overrides and the mode. Unknown fields are
// rejected — this is the trust boundary for user-submitted scenarios,
// and a typo'd knob silently ignored would be worse than a 400.
type Request struct {
	ID     string                    `json:"id,omitempty"`
	Spec   *experiments.ScenarioSpec `json:"spec,omitempty"`
	Params map[string]float64        `json:"params,omitempty"`
	Seed   *int64                    `json:"seed,omitempty"`
	Quick  bool                      `json:"quick,omitempty"`
}

// Response is the POST /v1/scenario success body. Every field is a pure
// function of the cache key, so the whole body is cached verbatim and
// repeated requests return bit-identical bytes.
type Response struct {
	ID      string     `json:"id"`
	Key     string     `json:"key"`
	Quick   bool       `json:"quick"`
	Table   string     `json:"table"`
	Metrics RunMetrics `json:"metrics"`
}

// RunMetrics is the deterministic per-run metrics snapshot embedded in
// a Response: the shape of what ran, never host timings (those go in
// the serve scope's latency histogram, visible at /varz).
type RunMetrics struct {
	Model      string `json:"model"`
	Rows       int    `json:"rows"`
	Columns    int    `json:"columns"`
	TableBytes int    `json:"table_bytes"`
}

// ScenarioInfo is one GET /v1/scenarios entry.
type ScenarioInfo struct {
	ID        string  `json:"id"`
	Name      string  `json:"name"`
	Title     string  `json:"title"`
	Model     string  `json:"model"`
	RowsQuick int     `json:"rows_quick"`
	RowsFull  int     `json:"rows_full"`
	Cost      float64 `json:"cost,omitempty"`
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// Server is the scenario service. Create with New, mount Handler, and
// Close when done to stop the worker pool.
type Server struct {
	cache   *resultCache
	pool    *mc.Pool
	reg     *obs.Registry
	scope   *obs.Scope
	maxBody int64
	mux     *http.ServeMux

	// mu guards latency-histogram writes and /varz snapshots —
	// stats.Histogram is not internally synchronized, so every Add and
	// every registry snapshot that reads it happens under this lock.
	mu  sync.Mutex
	lat *stats.Histogram
}

// New builds a Server from the config. It serves the registered
// scenario inventory, experiments.Scenarios(), and publishes its metrics
// into a fresh registry (Server.Registry, /varz).
func New(cfg Config) *Server {
	budget := cfg.CacheBytes
	if budget <= 0 {
		budget = DefaultCacheBytes
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	workers := cfg.PoolWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	reg := obs.NewRegistry()
	s := &Server{
		cache:   newResultCache(budget),
		pool:    mc.NewPool(workers - 1),
		reg:     reg,
		scope:   reg.Scope("serve"),
		maxBody: maxBody,
		mux:     http.NewServeMux(),
		// Request latencies from 1 us to 100 s, 8 log buckets per decade.
		lat: stats.NewLogHistogram(1e-6, 100, 64),
	}
	s.scope.PutHistogram("request_seconds", s.lat)
	s.mux.HandleFunc("POST /v1/scenario", s.handleScenario)
	s.mux.HandleFunc("GET /v1/scenarios", s.handleList)
	s.mux.HandleFunc("GET /v1/scenario/{id}/spec", s.handleSpec)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /varz", s.handleVarz)
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the metrics registry behind /varz.
func (s *Server) Registry() *obs.Registry { return s.reg }

// CacheStats returns the result cache's current counters.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// Close stops the server's worker pool. In-flight requests must have
// drained first (shut the HTTP server down before calling Close).
func (s *Server) Close() { s.pool.Close() }

// resolve turns a Request into the spec to interpret: the registered
// spec for ID (cloned, with overrides applied) or the inline spec (with
// overrides applied). The returned error carries the HTTP status.
func (s *Server) resolve(req *Request) (*experiments.ScenarioSpec, int, error) {
	switch {
	case req.ID != "" && req.Spec != nil:
		return nil, http.StatusBadRequest, errors.New("set exactly one of \"id\" and \"spec\", not both")
	case req.ID == "" && req.Spec == nil:
		return nil, http.StatusBadRequest, errors.New("set one of \"id\" (a registered scenario) or \"spec\" (an inline ScenarioSpec)")
	}
	base := req.Spec
	if req.ID != "" {
		reg, err := experiments.ScenarioByID(req.ID)
		if err != nil {
			return nil, http.StatusNotFound, fmt.Errorf("unknown scenario id %q", req.ID)
		}
		base = reg
	}
	resolved := base.WithOverrides(req.Params, req.Seed)
	if err := resolved.Validate(); err != nil {
		return nil, http.StatusBadRequest, err
	}
	return resolved, 0, nil
}

func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	status := http.StatusOK
	defer func() { s.observe(start, status) }()

	req, code, err := decodeRequest(w, r, s.maxBody)
	if err != nil {
		status = code
		writeError(w, code, err)
		return
	}
	resolved, code, err := s.resolve(req)
	if err != nil {
		status = code
		writeError(w, code, err)
		return
	}
	key, err := resolved.Fingerprint(req.Quick)
	if err != nil {
		status = http.StatusInternalServerError
		writeError(w, status, err)
		return
	}
	body, src, err := s.cache.getOrCompute(key, func() ([]byte, error) {
		tab, err := resolved.RunOn(s.pool, req.Quick)
		if err != nil {
			return nil, err
		}
		text := tab.String()
		resp := Response{
			ID:    resolved.ID,
			Key:   key,
			Quick: req.Quick,
			Table: text,
			Metrics: RunMetrics{
				Model:      resolved.Model,
				Rows:       len(tab.Rows),
				Columns:    len(tab.Columns),
				TableBytes: len(text),
			},
		}
		enc, err := json.Marshal(resp)
		if err != nil {
			return nil, err
		}
		return append(enc, '\n'), nil
	})
	s.count(src)
	if err != nil {
		// The spec validated but the model refused it at run time (for
		// example an infeasible cluster fit): the request is at fault,
		// not the server, and the error is never cached. A panic in the
		// model is the server's fault.
		status = http.StatusUnprocessableEntity
		if errors.As(err, new(*computePanic)) {
			status = http.StatusInternalServerError
		}
		writeError(w, status, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(CacheHeader, src.String())
	w.Header().Set(KeyHeader, key)
	w.Write(body)
}

// decodeRequest reads and strictly decodes the request body. The error
// return carries the HTTP status: 413 for an oversized body, 400 for
// anything that is not exactly one JSON Request object.
func decodeRequest(w http.ResponseWriter, r *http.Request, maxBody int64) (*Request, int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", maxBody)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("request body is not a scenario request: %v", err)
	}
	if dec.More() {
		return nil, http.StatusBadRequest, errors.New("request body has trailing data after the JSON object")
	}
	return &req, 0, nil
}

// count records one request's cache disposition in the serve scope and
// refreshes the occupancy gauges.
func (s *Server) count(src source) {
	switch src {
	case srcHit:
		s.scope.Add("hits", 1)
	case srcCollapsed:
		s.scope.Add("inflight_collapsed", 1)
	default:
		s.scope.Add("misses", 1)
	}
	st := s.cache.Stats()
	s.scope.Set("cache_bytes", float64(st.Bytes))
	s.scope.Set("cache_entries", float64(st.Entries))
	// Evictions happen inside insert; mirror the cumulative count. The
	// read-compare-add below is only atomic under s.mu — two concurrent
	// mirrors would otherwise double-count the same delta.
	s.mu.Lock()
	if delta := st.Evictions - s.scope.Counter("evictions"); delta > 0 {
		s.scope.Add("evictions", delta)
	}
	s.mu.Unlock()
}

// observe records one request's wall latency and final status.
func (s *Server) observe(start time.Time, status int) {
	s.mu.Lock()
	s.lat.Add(time.Since(start).Seconds())
	s.mu.Unlock()
	s.scope.Add("requests", 1)
	if status >= 400 {
		s.scope.Add("request_errors", 1)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	scenarios := experiments.Scenarios()
	infos := make([]ScenarioInfo, 0, len(scenarios))
	for _, sc := range scenarios {
		infos = append(infos, ScenarioInfo{
			ID:        sc.ID,
			Name:      sc.Name,
			Title:     sc.Title,
			Model:     sc.Model,
			RowsQuick: sc.RowCount(true),
			RowsFull:  sc.RowCount(false),
			Cost:      sc.Cost,
		})
	}
	writeJSON(w, infos)
}

func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	sc, err := experiments.ScenarioByID(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown scenario id %q", r.PathValue("id")))
		return
	}
	// Same bytes as `cmd/experiments -describe <id>`: indented spec JSON.
	writeJSON(w, sc)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	// Snapshotting reads the latency histogram, which request handlers
	// write under s.mu; hold it across the dump.
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg.WriteJSON(w)
}

func writeJSON(w http.ResponseWriter, v any) {
	enc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(enc, '\n'))
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc, _ := json.Marshal(errorBody{Error: err.Error()})
	w.Write(append(enc, '\n'))
}
