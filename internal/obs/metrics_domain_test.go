package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"northstar/internal/stats"
)

func TestScopeDomainIdentityAndNesting(t *testing.T) {
	reg := NewRegistry()
	s := reg.Scope("E1")
	a := s.Domain("network")
	b := s.Domain("network")
	if a != b {
		t.Fatal("Domain must return the same sub-scope on repeat calls")
	}
	a.Domain("packet").Add("messages_injected", 3)
	if got := s.Domain("network").Domain("packet").Counter("messages_injected"); got != 3 {
		t.Fatalf("nested counter = %d, want 3", got)
	}
}

func TestSnapshotDomainsSortedAndSchemaV2(t *testing.T) {
	reg := NewRegistry()
	s := reg.Scope("E1")
	s.Domain("zeta").Add("c", 1)
	s.Domain("alpha").Add("c", 2)
	s.Domain("mid").Domain("inner").Set("g", 1.5)

	snap := reg.Snapshot()
	if snap.Schema != SnapshotSchema || !strings.HasSuffix(snap.Schema, "/v2") {
		t.Fatalf("schema = %q, want the v2 constant", snap.Schema)
	}
	names := domainNames(snap.Scopes[0])
	want := []string{"alpha", "mid", "zeta"}
	if len(names) != 3 || names[0] != want[0] || names[1] != want[1] || names[2] != want[2] {
		t.Fatalf("domains = %v, want sorted %v", names, want)
	}
	inner := findDomain(t, findDomain(t, snap.Scopes[0], "mid"), "inner")
	if inner.Gauges["g"] != 1.5 {
		t.Fatalf("nested gauge = %v", inner.Gauges)
	}
}

func TestSnapshotJSONCarriesDomains(t *testing.T) {
	reg := NewRegistry()
	reg.Scope("E1").Domain("network").Domain("packet").Add("bytes_injected", 9)
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	pk := findDomain(t, findDomain(t, snap.Scopes[0], "network"), "packet")
	if pk.Counters["bytes_injected"] != 9 {
		t.Fatalf("round-tripped counter = %v", pk.Counters)
	}
}

func TestSnapshotHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	s := reg.Scope("E1")
	h := stats.NewHistogram(0, 100, 100)
	for i := 0; i < 100; i++ {
		h.Add(float64(i) + 0.5)
	}
	s.PutHistogram("lat", h)
	s.PutHistogram("empty", stats.NewHistogram(0, 1, 4))

	hs := reg.Snapshot().Scopes[0].Histograms
	lat := hs["lat"]
	if lat.P50 < 45 || lat.P50 > 55 || lat.P95 < 90 || lat.P99 > 100 {
		t.Errorf("quantiles off: p50=%g p95=%g p99=%g", lat.P50, lat.P95, lat.P99)
	}
	// Empty histograms omit quantiles (NaN cannot encode as JSON) —
	// they must stay encodable.
	if hs["empty"].P50 != 0 {
		t.Errorf("empty histogram p50 = %g, want zero value", hs["empty"].P50)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatalf("snapshot with empty histogram failed to encode: %v", err)
	}
}
