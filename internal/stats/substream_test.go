package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestSubstreamDeterministic(t *testing.T) {
	for _, base := range []int64{0, 1, -7, 1 << 40} {
		for _, i := range []uint64{0, 1, 2, 1000, math.MaxUint64} {
			a := Substream(base, i)
			b := Substream(base, i)
			if a != b {
				t.Fatalf("Substream(%d,%d) not deterministic: %d vs %d", base, i, a, b)
			}
		}
	}
}

func TestSubstreamDistinct(t *testing.T) {
	// Derived seeds for nearby indices and nearby bases must not collide;
	// a collision would make two replications sample identical streams.
	seen := map[int64][2]uint64{}
	for _, base := range []int64{0, 1, 2, 42, -1} {
		for i := uint64(0); i < 2000; i++ {
			s := Substream(base, i)
			if prev, ok := seen[s]; ok {
				t.Fatalf("seed collision: (base=%d,i=%d) and (base=%d,i=%d) both map to %d",
					base, i, prev[0], prev[1], s)
			}
			seen[s] = [2]uint64{uint64(base), i}
		}
	}
}

func TestSplitMix64IsSource64(t *testing.T) {
	var _ rand.Source64 = &SplitMix64{}

	s := &SplitMix64{}
	s.Seed(99)
	first := s.Uint64()
	s.Seed(99)
	if again := s.Uint64(); again != first {
		t.Fatalf("Seed does not reset the stream: %d vs %d", first, again)
	}
	for i := 0; i < 1000; i++ {
		if v := s.Int63(); v < 0 {
			t.Fatalf("Int63 returned negative %d", v)
		}
	}
}

func TestNewRandUniformity(t *testing.T) {
	// Coarse sanity: Float64 over a SplitMix64 source should fill ten
	// equal bins roughly evenly.
	r := NewRand(12345)
	const n = 100000
	var bins [10]int
	for i := 0; i < n; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of range: %v", u)
		}
		bins[int(u*10)]++
	}
	for b, c := range bins {
		if c < n/10*8/10 || c > n/10*12/10 {
			t.Fatalf("bin %d grossly uneven: %d of %d", b, c, n)
		}
	}
}

func TestStreamReseedMatchesNewRand(t *testing.T) {
	st := NewStream()
	for _, seed := range []int64{3, 0, -9, 1 << 33} {
		st.Reseed(seed)
		fresh := NewRand(seed)
		for i := 0; i < 50; i++ {
			a, b := st.Rand.Uint64(), fresh.Uint64()
			if a != b {
				t.Fatalf("seed %d draw %d: Stream %d != NewRand %d", seed, i, a, b)
			}
		}
	}
}

func TestStreamSamplesDistributions(t *testing.T) {
	// The distributions used by the Monte Carlo loops must behave
	// identically over a reseeded Stream and a fresh Rand.
	dists := []Dist{
		Exponential{Rate: 0.2},
		Weibull{Shape: 0.7, Scale: 100},
	}
	st := NewStream()
	for _, d := range dists {
		st.Reseed(77)
		fresh := NewRand(77)
		for i := 0; i < 100; i++ {
			a, b := d.Sample(st.Rand), d.Sample(fresh)
			if a != b {
				t.Fatalf("%T draw %d: Stream %v != NewRand %v", d, i, a, b)
			}
		}
	}
}
