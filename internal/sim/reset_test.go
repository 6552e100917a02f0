package sim

import "testing"

// A reset kernel must replay the construction seed exactly: the same
// schedule produces the same event times, the same random draws, and
// the same final clock as both the first run and a freshly built
// kernel.
func TestKernelResetReplaysIdentically(t *testing.T) {
	drive := func(k *Kernel) (Time, []float64) {
		var draws []float64
		n := 0
		var fn func()
		fn = func() {
			draws = append(draws, k.Rand().Float64())
			if n < 50 {
				n++
				k.After(Time(k.Rand().Float64()), fn)
			}
		}
		k.After(0, fn)
		return k.Run(), draws
	}

	k := New(99)
	end1, draws1 := drive(k)
	if k.Pending() != 0 {
		t.Fatalf("pending %d after drained run", k.Pending())
	}
	k.Reset()
	if k.Now() != 0 || k.Fired() != 0 || k.Pending() != 0 {
		t.Fatalf("reset kernel not pristine: now=%v fired=%d pending=%d",
			k.Now(), k.Fired(), k.Pending())
	}
	end2, draws2 := drive(k)
	end3, draws3 := drive(New(99))

	if end1 != end2 || end1 != end3 {
		t.Fatalf("final times diverge: first %v, reset %v, fresh %v", end1, end2, end3)
	}
	for i := range draws1 {
		if draws1[i] != draws2[i] || draws1[i] != draws3[i] {
			t.Fatalf("draw %d diverges: first %v, reset %v, fresh %v",
				i, draws1[i], draws2[i], draws3[i])
		}
	}
}

// The random source is built by the first Rand call and dropped by
// Reset, so a reset kernel draws a fresh kernel's sequence whether its
// source was never built, built, or partly consumed before the reset.
func TestKernelResetDrawsMatchFresh(t *testing.T) {
	draws := func(k *Kernel) [8]int64 {
		var out [8]int64
		for i := range out {
			out[i] = k.Rand().Int63()
		}
		return out
	}
	want := draws(New(42))
	for _, before := range []int{0, 1, 5} {
		k := New(42)
		for i := 0; i < before; i++ {
			k.Rand().Int63()
		}
		k.Reset()
		if got := draws(k); got != want {
			t.Errorf("after %d draws and a reset: %v, fresh kernel draws %v", before, got, want)
		}
	}
}

// Cancelled events are lazily deleted; Reset must drain them rather
// than mistake them for pending work.
func TestKernelResetDrainsCancelled(t *testing.T) {
	k := New(3)
	h1 := k.After(1, func() {})
	h2 := k.After(2, func() {})
	h1.Cancel()
	h2.Cancel()
	k.Reset()
	if k.Pending() != 0 || k.Now() != 0 {
		t.Fatalf("reset after cancels: pending=%d now=%v", k.Pending(), k.Now())
	}
}

// Reset is for reusing a drained kernel, not aborting a run: live
// pending events must panic.
func TestKernelResetPanicsOnPending(t *testing.T) {
	k := New(3)
	k.After(1, func() {})
	defer func() {
		if recover() == nil {
			t.Fatalf("Reset with a pending event did not panic")
		}
	}()
	k.Reset()
}
