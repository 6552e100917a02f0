package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrainMarkWorkerDedicated", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.bgsweep"}, "runtime_gc"},
		{[]string{"runtime.mallocgc", "northstar/internal/topology.(*Graph).buildTree",
			"northstar/internal/network.(*PacketNet).Send"}, "topology"},
		{[]string{"northstar/internal/sim.(*Kernel).Run.func1"}, "sim"},
		// An internal package without its own bucket rolls up to its caller.
		{[]string{"northstar/internal/node.Build", "northstar/internal/experiments.fixedBudgetRow"}, "experiments"},
		{[]string{"crypto/sha256.block", "northstar/internal/experiments.(*ScenarioSpec).Fingerprint",
			"northstar/internal/serve.(*Server).handleScenario", "net/http.HandlerFunc.ServeHTTP"}, "experiments"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Write", "net.(*conn).Write",
			"net/http.(*persistConn).writeLoop"}, "net_http"},
		{[]string{"encoding/json.(*decodeState).object", "main.(*serveKey).check"}, "encoding_json"},
		{[]string{"crypto/sha256.block", "main.(*suiteWorkload).pass"}, "crypto"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{nil, "other"},
	} {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

var burnSink float64

func burnCPU(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			burnSink += math.Sqrt(float64(i))
		}
	}
}

// A profile written by runtime/pprof decodes into named frames and
// shares that sum to 1.
func TestCPUSharesDecodesRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, f := range s.frames {
			found = found || strings.HasSuffix(f, ".burnCPU")
		}
	}
	if !found {
		t.Errorf("no sample names burnCPU among %d samples", len(samples))
	}
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, b := range cpuBuckets() {
		v, ok := shares[b]
		if !ok {
			t.Errorf("bucket %s missing", b)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 || len(shares) != len(cpuBuckets()) {
		t.Errorf("shares %v sum to %v", shares, sum)
	}
}
