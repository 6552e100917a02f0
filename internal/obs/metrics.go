package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"

	"northstar/internal/stats"
)

// Registry is a concurrency-safe collection of named metric scopes. Each
// experiment gets its own scope; suite-wide totals live in a "suite"
// scope. Scopes hold counters (monotonic int64), gauges (last- or
// max-value float64), and fixed-bucket histograms (stats.Histogram).
//
// Registries are cheap: an idle registry is a map and a mutex. The hot
// simulation path never touches one — KernelProbe accumulates in plain
// fields and publishes to a scope once per experiment.
type Registry struct {
	mu     sync.Mutex
	scopes map[string]*Scope
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{scopes: make(map[string]*Scope)}
}

// Scope returns the scope with the given name, creating it on first use.
func (r *Registry) Scope(name string) *Scope {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.scopes[name]
	if !ok {
		s = newScope(name)
		r.scopes[name] = s
	}
	return s
}

func newScope(name string) *Scope {
	return &Scope{
		name:     name,
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*stats.Histogram),
	}
}

// Scope is one named group of metrics. Methods are safe for concurrent
// use, but a scope is typically written by a single suite worker.
type Scope struct {
	mu       sync.Mutex
	name     string
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*stats.Histogram
	subs     map[string]*Scope
}

// Name returns the scope's name.
func (s *Scope) Name() string { return s.name }

// Add increments the named counter by delta, creating it at zero first.
func (s *Scope) Add(name string, delta int64) {
	s.mu.Lock()
	s.counters[name] += delta
	s.mu.Unlock()
}

// Counter returns the current value of the named counter (zero if unset).
func (s *Scope) Counter(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters[name]
}

// Set sets the named gauge to v.
func (s *Scope) Set(name string, v float64) {
	s.mu.Lock()
	s.gauges[name] = v
	s.mu.Unlock()
}

// Max raises the named gauge to v if v exceeds its current value (an
// unset gauge is created at v).
func (s *Scope) Max(name string, v float64) {
	s.mu.Lock()
	if cur, ok := s.gauges[name]; !ok || v > cur {
		s.gauges[name] = v
	}
	s.mu.Unlock()
}

// Gauge returns the current value of the named gauge (zero if unset).
func (s *Scope) Gauge(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gauges[name]
}

// PutHistogram publishes h under the given name. The scope takes
// ownership for snapshot purposes; callers must not keep adding to h
// concurrently with Snapshot.
func (s *Scope) PutHistogram(name string, h *stats.Histogram) {
	s.mu.Lock()
	s.hists[name] = h
	s.mu.Unlock()
}

// Domain returns the named sub-scope, creating it on first use. Domains
// nest ("network" -> "packet"), giving snapshots per-domain sections:
// an experiment scope's harness metrics stay top-level while its model
// telemetry lands under network/fault/mgmt.
func (s *Scope) Domain(name string) *Scope {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.subs == nil {
		s.subs = make(map[string]*Scope)
	}
	sub, ok := s.subs[name]
	if !ok {
		sub = newScope(name)
		s.subs[name] = sub
	}
	return sub
}

// ---- snapshots ----

// Snapshot is a stable, encodable view of a registry. Scopes are sorted
// by name and map keys encode in sorted order, so two snapshots of
// identical metric state produce identical bytes.
type Snapshot struct {
	Schema string          `json:"schema"`
	Scopes []ScopeSnapshot `json:"scopes"`
}

// ScopeSnapshot is the stable view of one scope. Domains (added in v2)
// hold nested per-domain sections, sorted by name.
type ScopeSnapshot struct {
	Name       string                       `json:"name"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Domains    []ScopeSnapshot              `json:"domains,omitempty"`
}

// HistogramSnapshot is the stable view of one histogram; only non-empty
// buckets are listed. P50/P95/P99 (added in v2) are bucket-interpolated
// quantile estimates, omitted for empty histograms.
type HistogramSnapshot struct {
	Count     int              `json:"count"`
	Underflow int              `json:"underflow,omitempty"`
	Overflow  int              `json:"overflow,omitempty"`
	P50       float64          `json:"p50,omitempty"`
	P95       float64          `json:"p95,omitempty"`
	P99       float64          `json:"p99,omitempty"`
	Buckets   []BucketSnapshot `json:"buckets"`
}

// BucketSnapshot is one non-empty histogram bucket [Lo, Hi).
type BucketSnapshot struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	N  int     `json:"n"`
}

// SnapshotSchema identifies the metrics snapshot encoding; bump on
// incompatible change. v2 added nested domain sections and histogram
// quantiles.
const SnapshotSchema = "northstar-metrics/v2"

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.scopes))
	for name := range r.scopes {
		names = append(names, name)
	}
	scopes := make([]*Scope, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		scopes = append(scopes, r.scopes[name])
	}
	r.mu.Unlock()

	snap := Snapshot{Schema: SnapshotSchema}
	for _, s := range scopes {
		snap.Scopes = append(snap.Scopes, s.snapshot())
	}
	return snap
}

func (s *Scope) snapshot() ScopeSnapshot {
	s.mu.Lock()
	ss := ScopeSnapshot{Name: s.name}
	if len(s.counters) > 0 {
		ss.Counters = make(map[string]int64, len(s.counters))
		for k, v := range s.counters {
			ss.Counters[k] = v
		}
	}
	if len(s.gauges) > 0 {
		ss.Gauges = make(map[string]float64, len(s.gauges))
		for k, v := range s.gauges {
			ss.Gauges[k] = v
		}
	}
	if len(s.hists) > 0 {
		ss.Histograms = make(map[string]HistogramSnapshot, len(s.hists))
		for k, h := range s.hists {
			ss.Histograms[k] = snapshotHistogram(h)
		}
	}
	subs := make([]*Scope, 0, len(s.subs))
	for _, k := range sortedKeys(s.subs) {
		subs = append(subs, s.subs[k])
	}
	// Recurse outside s.mu: sub-scopes have their own locks, and a
	// sub-scope never reaches back up to its parent.
	s.mu.Unlock()
	for _, sub := range subs {
		ss.Domains = append(ss.Domains, sub.snapshot())
	}
	return ss
}

func snapshotHistogram(h *stats.Histogram) HistogramSnapshot {
	hs := HistogramSnapshot{
		Count:     h.Count(),
		Underflow: h.Underflow(),
		Overflow:  h.Overflow(),
		Buckets:   []BucketSnapshot{},
	}
	if h.Count() > 0 {
		// Quantiles are bucket-interpolated estimates; an empty
		// histogram has none (and NaN cannot encode as JSON).
		hs.P50 = h.Quantile(0.50)
		hs.P95 = h.Quantile(0.95)
		hs.P99 = h.Quantile(0.99)
	}
	for i := 0; i < h.Buckets(); i++ {
		if n := h.Bucket(i); n > 0 {
			lo, hi := h.BucketBounds(i)
			hs.Buckets = append(hs.Buckets, BucketSnapshot{Lo: lo, Hi: hi, N: n})
		}
	}
	return hs
}

// WriteJSON writes the snapshot as indented JSON. encoding/json sorts map
// keys, so the bytes are stable for identical metric state.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
