package stats

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// FuzzHistogram feeds arbitrary finite ranges and arbitrary bit-pattern
// observations (including NaN and infinities) through log histograms and
// checks the accounting invariants the simulation's metrics
// depend on: no observation is ever lost (buckets + underflow + overflow
// always sum to Count), AddN(x, k) is exactly k Add(x) calls, bucket
// bounds tile the range contiguously, and rendering never panics.
func FuzzHistogram(f *testing.F) {
	f.Add(0.0, 100.0, uint8(10), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(1e-6, 10.0, uint8(32), []byte{0xff, 0xf0, 0, 0, 0, 0, 0, 1})
	f.Add(-50.0, 50.0, uint8(1), []byte{})
	f.Add(2.0, 2.5, uint8(63), []byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 0, 0x40, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, lo, hi float64, nb uint8, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		n := int(nb%64) + 1
		// Normalise the fuzzed range into something the constructors
		// accept; the observations stay fully arbitrary.
		if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
			t.Skip("non-finite range")
		}
		lo = math.Abs(lo)
		if lo < 1e-300 {
			lo = 1e-6
		}
		if hi <= lo {
			hi = lo + math.Abs(hi) + 1
		}
		if math.IsInf(hi, 0) {
			t.Skip("range overflow")
		}

		h, twin := NewLogHistogram(lo, hi, n), NewLogHistogram(lo, hi, n)

		added := 0
		for i := 0; i+8 <= len(data); i += 8 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[i:]))
			h.Add(x)
			h.Add(x)
			h.Add(x)
			twin.AddN(x, 3)
			added += 3
		}

		for _, hh := range []*Histogram{h, twin} {
			if hh.Count() != added {
				t.Fatalf("Count() = %d after %d observations", hh.Count(), added)
			}
			sum := hh.Underflow() + hh.Overflow()
			for i := 0; i < hh.Buckets(); i++ {
				if c := hh.Bucket(i); c < 0 {
					t.Fatalf("bucket %d count %d is negative", i, c)
				} else {
					sum += c
				}
			}
			if sum != added {
				t.Fatalf("buckets+under+over = %d, Count() = %d: an observation was lost", sum, added)
			}
		}
		for i := 0; i < n; i++ {
			if h.Bucket(i) != twin.Bucket(i) {
				t.Fatalf("bucket %d: Add x3 gives %d, AddN(,3) gives %d", i, h.Bucket(i), twin.Bucket(i))
			}
		}
		if h.Underflow() != twin.Underflow() || h.Overflow() != twin.Overflow() {
			t.Fatalf("out-of-range counts diverge: Add (%d,%d) vs AddN (%d,%d)",
				h.Underflow(), h.Overflow(), twin.Underflow(), twin.Overflow())
		}

		// Buckets tile [lo, hi): each bucket's upper bound is the next
		// one's lower bound, computed from the same expression so the
		// equality is exact, and widths are never negative.
		prevHi := 0.0
		for i := 0; i < n; i++ {
			blo, bhi := h.BucketBounds(i)
			if bhi < blo {
				t.Fatalf("bucket %d bounds inverted: [%g, %g)", i, blo, bhi)
			}
			if i > 0 && blo != prevHi {
				t.Fatalf("bucket %d lower bound %g != bucket %d upper bound %g: gap in tiling", i, blo, i-1, prevHi)
			}
			prevHi = bhi
		}

		s := h.String()
		wantLines := n
		if h.Underflow() > 0 {
			wantLines++
		}
		if h.Overflow() > 0 {
			wantLines++
		}
		if got := strings.Count(s, "\n"); got != wantLines {
			t.Fatalf("String() has %d lines, want %d (%d buckets, under=%d, over=%d)",
				got, wantLines, n, h.Underflow(), h.Overflow())
		}
	})
}
