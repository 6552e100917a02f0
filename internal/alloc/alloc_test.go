package alloc

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"northstar/internal/sched"
	"northstar/internal/sim"
	"northstar/internal/topology"
)

func TestScatterBasics(t *testing.T) {
	s := NewScatter(8)
	a, ok := s.Alloc(3)
	if !ok || len(a) != 3 || s.FreeCount() != 5 {
		t.Fatalf("alloc: %v %v free=%d", a, ok, s.FreeCount())
	}
	b, ok := s.Alloc(5)
	if !ok || s.FreeCount() != 0 {
		t.Fatalf("second alloc failed: free=%d", s.FreeCount())
	}
	if _, ok := s.Alloc(1); ok {
		t.Fatal("alloc on full machine succeeded")
	}
	s.Free(a)
	s.Free(b)
	if s.FreeCount() != 8 {
		t.Fatalf("free count %d after full release", s.FreeCount())
	}
}

func TestScatterDoubleFreePanics(t *testing.T) {
	s := NewScatter(4)
	a, _ := s.Alloc(2)
	s.Free(a)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	s.Free(a)
}

func TestContiguousAllocatesBoxes(t *testing.T) {
	c := NewContiguousTorus(4, 4, 4)
	nodes, ok := c.Alloc(8)
	if !ok {
		t.Fatal("8-node box failed on empty 4x4x4")
	}
	// Smallest box for 8 is 2x2x2 (volume exactly 8).
	if len(nodes) != 8 {
		t.Fatalf("granted %d nodes for width 8 (expected exact 2x2x2)", len(nodes))
	}
	// Non-power shapes over-allocate: width 5 needs a box of >= 5 with
	// minimal volume — 1x1x5 doesn't fit Z=4, but 5 <= 1x2x3=6.
	nodes5, ok := c.Alloc(5)
	if !ok {
		t.Fatal("5-node request failed")
	}
	if len(nodes5) < 5 || len(nodes5) > 8 {
		t.Fatalf("width 5 granted %d nodes", len(nodes5))
	}
}

func TestContiguousFragmentation(t *testing.T) {
	// Fill a 4x4x1 sheet with four 2x2 boxes, free two diagonal ones:
	// 8 nodes free but no 1x8/2x4/8x1 box available -> a width-8 request
	// must fail while scatter would succeed.
	c := NewContiguousTorus(4, 4, 1)
	var boxes [][]int
	for i := 0; i < 4; i++ {
		b, ok := c.Alloc(4)
		if !ok {
			t.Fatalf("box %d failed", i)
		}
		boxes = append(boxes, b)
	}
	c.Free(boxes[0])
	c.Free(boxes[3])
	if c.FreeCount() != 8 {
		t.Fatalf("free = %d, want 8", c.FreeCount())
	}
	if _, ok := c.Alloc(8); ok {
		t.Fatal("fragmented allocator placed an 8-node box; shapes should not fit")
	}
	// A 4-node box still fits in either hole.
	if _, ok := c.Alloc(4); !ok {
		t.Fatal("4-node box should fit the freed hole")
	}
}

// firstFreeBox is the origin scan placeBox replaced, kept as the
// reference: every origin in z, y, x order, checking the whole box. It
// returns the first all-free box's cells without claiming them.
func firstFreeBox(c *ContiguousTorus, a, b, d int) []int {
	for oz := 0; oz+d <= c.Z; oz++ {
		for oy := 0; oy+b <= c.Y; oy++ {
		origin:
			for ox := 0; ox+a <= c.X; ox++ {
				var cells []int
				for z := oz; z < oz+d; z++ {
					for y := oy; y < oy+b; y++ {
						for x := ox; x < ox+a; x++ {
							if c.used[c.idx(x, y, z)] {
								continue origin
							}
							cells = append(cells, c.idx(x, y, z))
						}
					}
				}
				return cells
			}
		}
	}
	return nil
}

// TestPlaceBoxMatchesScan: on random occupancy of small tori, placeBox's
// skipping scan claims the same first-fit box as checking every origin,
// for every box shape, or fails where it does.
func TestPlaceBoxMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		c := NewContiguousTorus(1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(4))
		fill := rng.Float64()
		for i := range c.used {
			c.used[i] = rng.Float64() < fill
		}
		for a := 1; a <= c.X; a++ {
			for b := 1; b <= c.Y; b++ {
				for d := 1; d <= c.Z; d++ {
					want := firstFreeBox(c, a, b, d)
					got, ok := c.placeBox(a, b, d)
					if ok != (want != nil) || !slices.Equal(got, want) {
						t.Fatalf("%dx%dx%d torus, %dx%dx%d box: placeBox = %v, %v; scan finds %v",
							c.X, c.Y, c.Z, a, b, d, got, ok, want)
					}
					for _, i := range got {
						c.used[i] = false
					}
				}
			}
		}
	}
}

func TestDilationScatterVsContiguous(t *testing.T) {
	g := topology.Torus3D(4, 4, 4)
	c := NewContiguousTorus(4, 4, 4)
	compact, _ := c.Alloc(8)
	// A deliberately scattered 8: a stride-2 lattice (corners would wrap
	// into adjacency on a torus).
	scattered := []int{0, 2, 8, 10, 32, 34, 40, 42}
	dc, _ := dilation(g, compact, nil)
	ds, _ := dilation(g, scattered, nil)
	if dc >= ds {
		t.Fatalf("compact dilation %.2f >= scattered %.2f", dc, ds)
	}
}

func TestDilationDegenerate(t *testing.T) {
	g := topology.Torus3D(2, 2, 2)
	if d, _ := dilation(g, []int{3}, nil); d != 0 {
		t.Fatalf("single-node dilation = %g", d)
	}
}

func mkJob(id int, submit, runtime sim.Time, nodes int) *sched.Job {
	return &sched.Job{ID: id, Submit: submit, Runtime: runtime, Estimate: runtime, Nodes: nodes}
}

func TestSimulateFCFSBothAllocators(t *testing.T) {
	g := topology.Torus3D(4, 4, 4)
	trace, err := sched.GenerateTrace(sched.TraceConfig{Jobs: 200, MaxNodes: 64, Load: 0.8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	clone := func() []*sched.Job {
		out := make([]*sched.Job, len(trace))
		for i, j := range trace {
			cp := *j
			out[i] = &cp
		}
		return out
	}
	sc, err := SimulateFCFS(NewScatter(64), g, clone())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := SimulateFCFS(NewContiguousTorus(4, 4, 4), g, clone())
	if err != nil {
		t.Fatal(err)
	}
	// The trade-off: contiguous has better locality but loses capacity.
	if ct.MeanDilation >= sc.MeanDilation {
		t.Errorf("contiguous dilation %.2f >= scatter %.2f", ct.MeanDilation, sc.MeanDilation)
	}
	if ct.MeanOverAllocation < 1 || sc.MeanOverAllocation != 1 {
		t.Errorf("over-allocation: contiguous %.2f, scatter %.2f", ct.MeanOverAllocation, sc.MeanOverAllocation)
	}
	if ct.FragmentationStalls == 0 {
		t.Error("contiguous allocator never stalled on fragmentation at load 0.8; suspicious")
	}
	if sc.FragmentationStalls != 0 {
		t.Errorf("scatter stalled on fragmentation %d times; impossible", sc.FragmentationStalls)
	}
	if sc.Utilization <= 0 || ct.Utilization <= 0 {
		t.Errorf("utilizations: %g, %g", sc.Utilization, ct.Utilization)
	}
}

// Property: allocators conserve nodes — after any alloc/free sequence
// completes, the free count returns to the machine size, and concurrent
// holdings never overlap.
func TestSimulateFCFSRejectsBadJobs(t *testing.T) {
	nan, inf := sim.Time(math.NaN()), sim.Time(math.Inf(1))
	g := topology.Torus3D(2, 2, 2)
	for i, jobs := range [][]*sched.Job{
		{mkJob(0, 0, 10, 9)}, // wider than the machine
		{mkJob(0, 0, 0, 1)},  // zero runtime
		// Non-finite times once reached the kernel, which panicked on a
		// NaN event time.
		{mkJob(0, nan, 10, 1)},
		{mkJob(0, 0, nan, 1)},
		{mkJob(0, 0, inf, 1)},
		{{ID: 0, Runtime: 10, Estimate: inf, Nodes: 1}},
	} {
		if _, err := SimulateFCFS(NewScatter(8), g, jobs); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestAllocatorConservationProperty(t *testing.T) {
	prop := func(seed int64, contiguous bool) bool {
		var a Allocator
		if contiguous {
			a = NewContiguousTorus(4, 4, 2)
		} else {
			a = NewScatter(32)
		}
		x := uint64(seed)*6364136223846793005 + 1
		next := func(n int) int {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return int(x % uint64(n))
		}
		var held [][]int
		inUse := make(map[int]bool)
		for step := 0; step < 200; step++ {
			if len(held) > 0 && next(2) == 0 {
				i := next(len(held))
				for _, n := range held[i] {
					delete(inUse, n)
				}
				a.Free(held[i])
				held = append(held[:i], held[i+1:]...)
				continue
			}
			want := next(8) + 1
			nodes, ok := a.Alloc(want)
			if !ok {
				continue
			}
			if len(nodes) < want {
				return false
			}
			for _, n := range nodes {
				if inUse[n] {
					return false // overlapping grant
				}
				inUse[n] = true
			}
			held = append(held, nodes)
		}
		for _, h := range held {
			a.Free(h)
		}
		return a.FreeCount() == a.Nodes()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
