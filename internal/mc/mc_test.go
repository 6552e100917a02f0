package mc

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"northstar/internal/stats"
)

// sequentialTally is the reference reduction: the plain sequential loop
// every pooled run must reproduce.
func sequentialTally(n int, seed int64) (intSum int64, floatSum float64) {
	st := stats.NewStream()
	for r := 0; r < n; r++ {
		st.Reseed(stats.Substream(seed, uint64(r)))
		intSum += int64(st.Rand.Intn(1000))
		floatSum += st.Rand.Float64()
	}
	return
}

func pooledTally(p *Pool, n int, seed int64) (intSum int64, floatSum float64) {
	ints := make([]int64, n)
	floats := make([]float64, n)
	Replicate(p, n, seed, func(r int, rng *rand.Rand) {
		ints[r] = int64(rng.Intn(1000))
		floats[r] = rng.Float64()
	})
	for r := 0; r < n; r++ {
		intSum += ints[r]
		floatSum += floats[r]
	}
	return
}

// testPools returns pools of width 1 (nil), 2 and 8, closed when the
// test ends.
func testPools(t *testing.T) []*Pool {
	pools := []*Pool{nil, NewPool(1), NewPool(7)}
	t.Cleanup(func() {
		for _, p := range pools {
			p.Close()
		}
	})
	return pools
}

// TestReplicateShardReduceMatchesSequential is the reducer property
// test: for arbitrary (n, seed) and pool widths 1, 2 and 8, the pooled
// reduction equals the sequential loop — exactly for integer tallies,
// and bit-identical (a stronger guarantee than the 1-ulp tolerance the
// contract promises) for float sums, because reduction happens in
// replication order.
func TestReplicateShardReduceMatchesSequential(t *testing.T) {
	pools := testPools(t)
	prop := func(nRaw uint16, seed int64) bool {
		n := int(nRaw%500) + 1
		wantInt, wantFloat := sequentialTally(n, seed)
		for _, p := range pools {
			gotInt, gotFloat := pooledTally(p, n, seed)
			if gotInt != wantInt || math.Float64bits(gotFloat) != math.Float64bits(wantFloat) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestReplicateRaceShards8 exists for the race detector: an 8-wide
// pool, all eight tasks writing per-replication slots concurrently.
func TestReplicateRaceShards8(t *testing.T) {
	p := NewPool(7)
	defer p.Close()
	for iter := 0; iter < 20; iter++ {
		a, b := pooledTally(p, 400, int64(iter))
		c, d := sequentialTally(400, int64(iter))
		if a != c || b != d {
			t.Fatalf("iter %d: pooled (%d,%v) != sequential (%d,%v)", iter, a, b, c, d)
		}
	}
}

func TestReplicateCensoredMatchesSequentialBreak(t *testing.T) {
	// Censor rule: replication r censors iff its first draw < 0.02.
	censors := func(rng *rand.Rand) bool { return rng.Float64() < 0.02 }

	seqFirst := func(n int, seed int64) int {
		st := stats.NewStream()
		for r := 0; r < n; r++ {
			st.Reseed(stats.Substream(seed, uint64(r)))
			if censors(st.Rand) {
				return r
			}
		}
		return n
	}

	pools := testPools(t)
	prop := func(nRaw uint16, seed int64) bool {
		n := int(nRaw%400) + 1
		want := seqFirst(n, seed)
		for _, p := range pools {
			executed := make([]atomic.Bool, n)
			got := ReplicateCensored(p, n, seed, func(r int, rng *rand.Rand) bool {
				executed[r].Store(true)
				return censors(rng)
			})
			if got != want {
				return false
			}
			// Every replication below the censor point must have executed.
			for r := 0; r < got; r++ {
				if !executed[r].Load() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReplicateSeedsAreSubstreams(t *testing.T) {
	// The first draw of replication r must equal the first draw of a
	// fresh rand seeded with Substream(seed, r).
	const n, seed = 64, 99
	got := make([]uint64, n)
	Replicate(nil, n, seed, func(r int, rng *rand.Rand) { got[r] = rng.Uint64() })
	for r := 0; r < n; r++ {
		if want := stats.NewRand(stats.Substream(seed, uint64(r))).Uint64(); got[r] != want {
			t.Fatalf("replication %d: draw %d, want %d", r, got[r], want)
		}
	}
}

// TestReplicateHandsOutInIndexOrder: replications begin in index order
// at any pool width. Replication 0 holds its task until another
// replication has begun, so the pool's other tasks run beside it; when
// any replication begins, the only lower ones that may not have begun
// are those the other Workers()-1 tasks have taken and not yet started.
// A block partition fails this: its second block starts while most of
// the first has not begun.
func TestReplicateHandsOutInIndexOrder(t *testing.T) {
	const n = 64
	for _, width := range []int{2, 4} {
		p := NewPool(width - 1)
		defer p.Close()
		overlapped := false
		// A helper that is not idle when Replicate hands out its tasks
		// leaves them to the caller; retry until one ran beside it.
		for attempt := 0; !overlapped; attempt++ {
			if attempt == 1000 {
				t.Fatalf("width %d: replication 0 never ran beside another", width)
			}
			var begun [n]atomic.Bool
			var late atomic.Int64 // lower replications not begun, when over the bound
			other := make(chan struct{})
			var once sync.Once
			Replicate(p, n, 1, func(r int, _ *rand.Rand) {
				begun[r].Store(true)
				notBegun := 0
				for q := 0; q < r; q++ {
					if !begun[q].Load() {
						notBegun++
					}
				}
				if notBegun > width-1 {
					late.Store(int64(notBegun))
				}
				if r > 0 {
					once.Do(func() { close(other) })
					return
				}
				select {
				case <-other:
					overlapped = true
				case <-time.After(10 * time.Millisecond):
				}
			})
			if l := late.Load(); l > 0 {
				t.Fatalf("width %d: a replication began while %d lower ones had not, want at most %d", width, l, width-1)
			}
		}
	}
}

func TestNestedDoDoesNotDeadlock(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var total atomic.Int64
	ForEach(p, 8, func(i int) {
		// Inner parallel loop on the same (possibly fully busy) pool.
		ForEach(p, 8, func(j int) { total.Add(1) })
	})
	if total.Load() != 64 {
		t.Fatalf("ran %d inner iterations, want 64", total.Load())
	}
}

func TestZeroHelperPoolRunsInline(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.Workers() != 1 {
		t.Fatalf("Workers() = %d, want 1", p.Workers())
	}
	sum := 0
	ForEach(p, 10, func(i int) { sum += i }) // safe: no helpers, all inline
	if sum != 45 {
		t.Fatalf("sum = %d, want 45", sum)
	}
}

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil Workers() = %d, want 1", p.Workers())
	}
	sum := 0
	ForEach(p, 10, func(i int) { sum += i })
	if sum != 45 {
		t.Fatalf("sum = %d, want 45", sum)
	}
	p.Close() // must not panic
}

func TestSetDefaultWorkers(t *testing.T) {
	SetDefaultWorkers(2)
	if w := Default().Workers(); w != 3 {
		t.Fatalf("Workers() = %d after SetDefaultWorkers(2), want 3", w)
	}
	var n atomic.Int64
	ForEach(Default(), 16, func(i int) { n.Add(1) })
	if n.Load() != 16 {
		t.Fatalf("ran %d iterations, want 16", n.Load())
	}
	SetDefaultWorkers(0)
	if w := Default().Workers(); w != 1 {
		t.Fatalf("Workers() = %d after SetDefaultWorkers(0), want 1", w)
	}
}

func TestPropagatorWrapsEveryTask(t *testing.T) {
	var setups, wrapped atomic.Int64
	SetPropagator(func() func(func()) {
		setups.Add(1)
		return func(task func()) {
			wrapped.Add(1)
			task()
		}
	})
	defer SetPropagator(nil)

	p := NewPool(2)
	defer p.Close()
	var ran atomic.Int64
	ForEach(p, 9, func(i int) { ran.Add(1) })
	if ran.Load() != 9 || wrapped.Load() != 9 {
		t.Fatalf("ran %d wrapped %d, want 9 and 9", ran.Load(), wrapped.Load())
	}
	if setups.Load() != 1 {
		t.Fatalf("propagator invoked %d times for one Do, want 1", setups.Load())
	}

	SetPropagator(nil)
	ForEach(p, 3, func(i int) {})
	if wrapped.Load() != 9 {
		t.Fatalf("wrapper ran after SetPropagator(nil)")
	}
}

func TestDoEmptyAndSingle(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	p.Do(nil)
	ran := false
	p.Do([]func(){func() { ran = true }})
	if !ran {
		t.Fatal("single task did not run")
	}
}

// BenchmarkShardReplicate measures ns/replication of Replicate on pools
// of width 1/2/4/8 on a moderately priced replication body (an
// exponential draw plus float accumulation), the shape of the
// fault-model loops.
func BenchmarkShardReplicate(b *testing.B) {
	for _, width := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			p := NewPool(width - 1)
			defer p.Close()
			const n = 4096
			out := make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Replicate(p, n, 42, func(r int, rng *rand.Rand) {
					out[r] = rng.ExpFloat64()
				})
				var sum float64
				for _, v := range out {
					sum += v
				}
				_ = sum
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/rep")
		})
	}
}

// BenchmarkShardSingleStreamBaseline is the pre-pool reference: one
// math/rand stream, no substream reseeding, no pool. The delta against
// BenchmarkShardReplicate/width=1 is the engine's overhead.
func BenchmarkShardSingleStreamBaseline(b *testing.B) {
	const n = 4096
	out := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(42))
		for r := 0; r < n; r++ {
			out[r] = rng.ExpFloat64()
		}
		var sum float64
		for _, v := range out {
			sum += v
		}
		_ = sum
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/rep")
}
