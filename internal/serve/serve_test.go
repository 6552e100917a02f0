package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"northstar/internal/experiments"
	"northstar/internal/mc"
	"northstar/internal/obs"
	"northstar/internal/serve"
)

// migratedIDs is the full spec-driven inventory the service must serve
// byte-exactly against the golden corpus.
var migratedIDs = []string{"E1", "E2", "E3", "E4", "E5", "E5b", "E6b", "E7", "E9", "E10"}

func goldenPath(id string) string {
	return filepath.Join("..", "experiments", "testdata", "golden", id+".table")
}

// newServer starts an httptest server around a serve.Server and
// registers cleanup. It returns both: the serve.Server for cache and
// registry introspection, the httptest.Server for requests.
func newServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv := serve.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// post sends a POST /v1/scenario with the given body and returns the
// response and its full body bytes.
func post(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/scenario", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// decodeResponse unmarshals a success body.
func decodeResponse(t *testing.T, data []byte) serve.Response {
	t.Helper()
	var r serve.Response
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("response does not decode: %v\n%s", err, data)
	}
	return r
}

// errorOf unmarshals an error body and returns its message.
func errorOf(t *testing.T, data []byte) string {
	t.Helper()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("error body is not the declared JSON shape: %v\n%s", err, data)
	}
	if e.Error == "" {
		t.Fatalf("error body carries no message: %s", data)
	}
	return e.Error
}

// TestServedTablesMatchGoldenCorpus is the service's reason to exist:
// for every migrated scenario, the served table — cold and then cached
// — must be byte-identical to the committed golden file, and the
// repeated request must be a cache hit with a bit-identical body.
func TestServedTablesMatchGoldenCorpus(t *testing.T) {
	_, ts := newServer(t, serve.Config{})
	for _, id := range migratedIDs {
		want, err := os.ReadFile(goldenPath(id))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		req := fmt.Sprintf(`{"id":%q,"quick":true}`, id)
		resp, cold := post(t, ts, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", id, resp.StatusCode, cold)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content type %q", id, ct)
		}
		if c := resp.Header.Get(serve.CacheHeader); c != "miss" {
			t.Errorf("%s: cold request reported cache %q, want miss", id, c)
		}
		r := decodeResponse(t, cold)
		if r.Table != string(want) {
			t.Errorf("%s: served table differs from golden corpus", id)
		}
		if r.ID != id || !r.Quick {
			t.Errorf("%s: response identifies as (%s, quick=%v)", id, r.ID, r.Quick)
		}
		if len(r.Key) != 64 {
			t.Errorf("%s: key %q is not a sha256 hex digest", id, r.Key)
		}
		if r.Metrics.TableBytes != len(r.Table) || r.Metrics.Rows == 0 || r.Metrics.Columns == 0 {
			t.Errorf("%s: metrics %+v inconsistent with table", id, r.Metrics)
		}

		resp2, warm := post(t, ts, req)
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("%s: repeat status %d", id, resp2.StatusCode)
		}
		if c := resp2.Header.Get(serve.CacheHeader); c != "hit" {
			t.Errorf("%s: repeat request reported cache %q, want hit", id, c)
		}
		if !bytes.Equal(cold, warm) {
			t.Errorf("%s: cached body differs from cold body", id)
		}
		if resp2.Header.Get(serve.KeyHeader) != r.Key {
			t.Errorf("%s: key header drifted between cold and cached", id)
		}
	}
}

// TestFaultEstimatesRunOnTheServersPool: a served E9 or E10 runs its
// Monte Carlo estimates on the server's pool. With the default pool
// closed, so that an estimate reaching for it panics, a one-wide server
// still answers both, quick and full, with the reference tables.
func TestFaultEstimatesRunOnTheServersPool(t *testing.T) {
	t.Cleanup(func() { mc.SetDefaultWorkers(runtime.GOMAXPROCS(0) - 1) })
	mc.SetDefaultWorkers(1)
	mc.Default().Close()
	_, ts := newServer(t, serve.Config{PoolWorkers: 1})
	for _, id := range []string{"E9", "E10"} {
		for _, quick := range []bool{true, false} {
			resp, body := post(t, ts, fmt.Sprintf(`{"id":%q,"quick":%v}`, id, quick))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s quick=%v: status %d: %s", id, quick, resp.StatusCode, body)
				continue
			}
			if decodeResponse(t, body).Table != referenceTable(t, id, quick) {
				t.Errorf("%s quick=%v: served table differs from the reference", id, quick)
			}
		}
	}
}

// referenceTable returns id's committed table: the golden file in quick
// mode, its section of results/full_output.txt in full mode.
func referenceTable(t *testing.T, id string, quick bool) string {
	t.Helper()
	if quick {
		want, err := os.ReadFile(goldenPath(id))
		if err != nil {
			t.Fatal(err)
		}
		return string(want)
	}
	out, err := os.ReadFile(filepath.Join("..", "..", "results", "full_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	i := strings.Index(s, "== "+id+": ")
	if i < 0 {
		t.Fatalf("%s has no table in results/full_output.txt", id)
	}
	return s[i : i+strings.Index(s[i:], "\n\n")+2]
}

// TestAPIContract pins every endpoint's status codes, content types,
// and error body shapes — the envelope a client can rely on.
func TestAPIContract(t *testing.T) {
	srv, ts := newServer(t, serve.Config{})

	t.Run("unknown id is 404", func(t *testing.T) {
		resp, data := post(t, ts, `{"id":"E99","quick":true}`)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if msg := errorOf(t, data); !strings.Contains(msg, "E99") {
			t.Errorf("error %q does not name the id", msg)
		}
	})

	t.Run("invalid spec is 400 with the Validate message", func(t *testing.T) {
		resp, data := post(t, ts, `{"spec":{"id":"Z1","name":"z","title":"z","model":"warp-drive","columns":["a"]}}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if msg := errorOf(t, data); !strings.Contains(msg, "unknown model") {
			t.Errorf("error %q does not carry the Validate message", msg)
		}
	})

	t.Run("non-JSON body is 400", func(t *testing.T) {
		resp, data := post(t, ts, `this is not json`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
		errorOf(t, data)
	})

	t.Run("trailing data is 400", func(t *testing.T) {
		resp, data := post(t, ts, `{"id":"E1","quick":true}{"id":"E2"}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if msg := errorOf(t, data); !strings.Contains(msg, "trailing") {
			t.Errorf("error %q does not mention trailing data", msg)
		}
	})

	t.Run("unknown request field is 400", func(t *testing.T) {
		resp, data := post(t, ts, `{"id":"E1","quik":true}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
		errorOf(t, data)
	})

	t.Run("oversized body is 413", func(t *testing.T) {
		_, small := newServer(t, serve.Config{MaxBodyBytes: 64})
		resp, data := post(t, small, `{"id":"E1","params":{"`+strings.Repeat("x", 128)+`":1}}`)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if msg := errorOf(t, data); !strings.Contains(msg, "64") {
			t.Errorf("error %q does not state the cap", msg)
		}
	})

	t.Run("both id and spec is 400", func(t *testing.T) {
		resp, data := post(t, ts, `{"id":"E1","spec":{"id":"E1"}}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if msg := errorOf(t, data); !strings.Contains(msg, "exactly one") {
			t.Errorf("error %q", msg)
		}
	})

	t.Run("neither id nor spec is 400", func(t *testing.T) {
		resp, data := post(t, ts, `{"quick":true}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
		errorOf(t, data)
	})

	t.Run("undeclared param override is 400", func(t *testing.T) {
		resp, data := post(t, ts, `{"id":"E1","params":{"warp":9}}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if msg := errorOf(t, data); !strings.Contains(msg, "does not declare") {
			t.Errorf("error %q does not carry the Validate message", msg)
		}
	})

	t.Run("out-of-range param override is 400", func(t *testing.T) {
		resp, data := post(t, ts, `{"id":"E2","params":{"budget-dollars":1e300}}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if msg := errorOf(t, data); !strings.Contains(msg, "outside") {
			t.Errorf("error %q", msg)
		}
	})

	t.Run("method mismatch is 405", func(t *testing.T) {
		for _, c := range []struct{ method, path string }{
			{http.MethodGet, "/v1/scenario"},
			{http.MethodPost, "/v1/scenarios"},
			{http.MethodPost, "/healthz"},
			{http.MethodDelete, "/varz"},
			{http.MethodPost, "/v1/scenario/E1/spec"},
		} {
			req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", c.method, c.path, resp.StatusCode)
			}
		}
	})

	t.Run("spec endpoint returns describe bytes", func(t *testing.T) {
		sc, err := experiments.ScenarioByID("E7")
		if err != nil {
			t.Fatal(err)
		}
		enc, err := json.MarshalIndent(sc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(ts.URL + "/v1/scenario/E7/spec")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if string(data) != string(enc)+"\n" {
			t.Error("spec endpoint bytes differ from -describe encoding")
		}
		missing, err := http.Get(ts.URL + "/v1/scenario/E99/spec")
		if err != nil {
			t.Fatal(err)
		}
		missing.Body.Close()
		if missing.StatusCode != http.StatusNotFound {
			t.Errorf("unknown spec status %d, want 404", missing.StatusCode)
		}
	})

	t.Run("scenario listing covers the inventory in order", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/scenarios")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var infos []serve.ScenarioInfo
		if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
			t.Fatal(err)
		}
		want := experiments.Scenarios()
		if len(infos) != len(want) {
			t.Fatalf("listing has %d entries, inventory has %d", len(infos), len(want))
		}
		for i, sc := range want {
			if infos[i].ID != sc.ID || infos[i].Model != sc.Model {
				t.Errorf("entry %d = (%s, %s), want (%s, %s)", i, infos[i].ID, infos[i].Model, sc.ID, sc.Model)
			}
			if infos[i].RowsQuick < 1 || infos[i].RowsFull < infos[i].RowsQuick {
				t.Errorf("%s: rows quick=%d full=%d", sc.ID, infos[i].RowsQuick, infos[i].RowsFull)
			}
		}
	})

	t.Run("healthz", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK || string(data) != "ok\n" {
			t.Errorf("healthz = %d %q", resp.StatusCode, data)
		}
	})

	t.Run("varz is a v2 metrics snapshot with a serve scope", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/varz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap obs.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		if snap.Schema != obs.SnapshotSchema {
			t.Errorf("schema %q, want %q", snap.Schema, obs.SnapshotSchema)
		}
		var found bool
		for _, sc := range snap.Scopes {
			if sc.Name == "serve" {
				found = true
				if sc.Counters["requests"] == 0 {
					t.Error("serve scope counted no requests")
				}
				if _, ok := sc.Histograms["request_seconds"]; !ok {
					t.Error("serve scope has no request latency histogram")
				}
			}
		}
		if !found {
			t.Error("no serve scope in the varz snapshot")
		}
	})

	// The contract tests above all hit the same server; its error
	// counter must have moved with the 4xx responses.
	if n := srv.Registry().Scope("serve").Counter("request_errors"); n == 0 {
		t.Error("request_errors counter never moved across the 4xx cases")
	}
}

// TestRuntimeModelErrorIs422 pins the third error class: a spec that
// validates but whose model refuses it at run time (an infeasible
// cluster fit) maps to 422, and the failure is never cached — a retry
// recomputes.
func TestRuntimeModelErrorIs422(t *testing.T) {
	srv, ts := newServer(t, serve.Config{})
	// $1 buys no cluster in 2002: FitLargest errors after Validate passes.
	body := `{"id":"E2","quick":true,"params":{"budget-dollars":1}}`
	for i := 0; i < 2; i++ {
		resp, data := post(t, ts, body)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("attempt %d: status %d: %s", i, resp.StatusCode, data)
		}
		errorOf(t, data)
	}
	st := srv.CacheStats()
	if st.Misses != 2 || st.Entries != 0 {
		t.Errorf("failed runs cached: %+v", st)
	}
}

// TestSeedOverrideCanonicalization proves override application is
// canonical: overriding with the spec's own values resolves to the same
// content address (a cache hit), while a genuinely different seed is a
// distinct entry.
func TestSeedOverrideCanonicalization(t *testing.T) {
	_, ts := newServer(t, serve.Config{})
	resp, _ := post(t, ts, `{"id":"E5","quick":true}`)
	base := resp.Header.Get(serve.KeyHeader)

	// E5's registered seed is 42; an explicit override to 42 is the
	// same interpretation and must hit the same entry.
	resp2, _ := post(t, ts, `{"id":"E5","quick":true,"seed":42}`)
	if got := resp2.Header.Get(serve.KeyHeader); got != base {
		t.Errorf("override to the registered seed changed the key: %s vs %s", got, base)
	}
	if c := resp2.Header.Get(serve.CacheHeader); c != "hit" {
		t.Errorf("identical interpretation was a cache %s, want hit", c)
	}

	resp3, _ := post(t, ts, `{"id":"E5","quick":true,"seed":43}`)
	if got := resp3.Header.Get(serve.KeyHeader); got == base {
		t.Error("changing the seed did not change the key")
	}
	if c := resp3.Header.Get(serve.CacheHeader); c != "miss" {
		t.Errorf("new seed was a cache %s, want miss", c)
	}
}
