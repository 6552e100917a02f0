package main

import (
	"math/rand"
	"testing"
)

// serve_mixed sends 20 hits for each miss; the hits go round-robin over
// the 10 quick scenarios, and every miss is a key no request used
// before. The replay's misses are the ones the clients sent.
func TestServeMixedTraffic(t *testing.T) {
	w := &serveWorkload{mixed: true}
	e := &env{cfg: runConfig{Root: "..", Seed: 5}, size: testSizes}
	if err := w.buildKeys(e, rand.New(rand.NewSource(e.cfg.Seed))); err != nil {
		t.Fatal(err)
	}
	const n = 100 * missEvery
	hits := make(map[*serveKey]int)
	misses := make(map[string]bool)
	for i := int64(0); i < n; i++ {
		k, err := w.keyFor(i)
		if err != nil {
			t.Fatal(err)
		}
		if k.req.Seed == nil {
			hits[k]++
			continue
		}
		if k.req.ID != missScenario || !k.req.Quick || misses[k.fp] || k.want != w.missWant {
			t.Fatalf("request %d: miss %s repeats or asks for the wrong table", i, k.body)
		}
		misses[k.fp] = true
	}
	if len(misses) != n/missEvery || len(hits) != 10 {
		t.Fatalf("%d misses over %d hot keys, want %d over 10", len(misses), len(hits), n/missEvery)
	}
	for k, c := range hits {
		if c != 200 {
			t.Errorf("%s sent %d times, want 200", k.body, c)
		}
	}
	again, err := w.keyFor(missEvery - 1)
	if err != nil || again != w.misses[0] {
		t.Errorf("the first miss is not the key built in setup")
	}
}
