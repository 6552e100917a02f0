package sched

import (
	"testing"

	"northstar/internal/sim"
)

// earliestScan is the search earliest replaced, kept as the reference:
// from every breakpoint with n nodes free it rescans the window of
// duration d. ok is false where earliest panics.
func earliestScan(p *profile, n int, d sim.Time) (start sim.Time, ok bool) {
	for i := 0; i < len(p.free); i++ {
		if p.free[i] < n {
			continue
		}
		start := p.times[i]
		end := start + d
		fits := true
		for j := i; j < len(p.free) && p.times[j] < end; j++ {
			if p.free[j] < n {
				fits = false
				break
			}
		}
		if fits {
			return start, true
		}
	}
	return 0, false
}

// FuzzProfileEarliest checks the one-pass earliest against earliestScan
// on profiles of 16 nodes built from random reservations: each byte
// triple of data reserves data[i+2]%8 nodes from data[i]%64 for
// data[i+1]%32 seconds, so breakpoints collide and windows end exactly
// on them. Every width from 0 to 17 (one more than fits) is searched
// for a window of dur%64 seconds.
func FuzzProfileEarliest(f *testing.F) {
	f.Add([]byte{0, 10, 4, 5, 10, 6, 20, 5, 9, 30, 1, 16}, uint8(10))
	f.Add([]byte{1, 3, 7, 2, 3, 7, 4, 3, 7, 8, 3, 7, 12, 3, 7}, uint8(2))
	f.Add([]byte{0, 31, 7, 0, 31, 7, 0, 31, 3}, uint8(0))
	f.Add([]byte{}, uint8(63))
	f.Fuzz(func(t *testing.T, data []byte, dur uint8) {
		const total = 16
		p := new(profile)
		p.init(0, total, 0)
		for i := 0; i+2 < len(data); i += 3 {
			from := sim.Time(data[i] % 64)
			p.reserve(from, from+sim.Time(data[i+1]%32), int(data[i+2]%8))
		}
		d := sim.Time(dur % 64)
		for n := 0; n <= total+1; n++ {
			want, ok := earliestScan(p, n, d)
			got, found := func() (start sim.Time, found bool) {
				defer func() {
					if recover() != nil {
						found = false
					}
				}()
				return p.earliest(n, d), true
			}()
			if found != ok || got != want {
				t.Fatalf("width %d for %v over times %v free %v: earliest = %v (found %v), scan = %v (found %v)",
					n, d, p.times, p.free, got, found, want, ok)
			}
		}
	})
}
