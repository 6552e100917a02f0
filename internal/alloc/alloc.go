// Package alloc models node allocation — the placement half of resource
// management. On direct-network machines (tori), allocators face the
// classic 2002-era trade-off: contiguous axis-aligned partitions give
// jobs compact communication neighborhoods but strand free nodes behind
// fragmentation; scattered allocation wastes no nodes but dilates every
// job's communication paths. This package provides both allocators, an
// event-driven FCFS placement simulation, and the dilation metric that
// quantifies what scattering costs.
package alloc

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"northstar/internal/sched"
	"northstar/internal/sim"
	"northstar/internal/topology"
)

// Allocator places jobs onto specific nodes of a fixed-size machine.
type Allocator interface {
	// Name identifies the allocator.
	Name() string
	// Nodes returns the machine size.
	Nodes() int
	// Alloc reserves nodes for a job of width n, returning their ids.
	// ok is false if the allocator cannot place the job now — which,
	// for shape-constrained allocators, can happen even when enough
	// nodes are free.
	Alloc(n int) (nodes []int, ok bool)
	// Free releases previously allocated nodes.
	Free(nodes []int)
	// FreeCount returns how many nodes are unallocated.
	FreeCount() int
}

// Scatter allocates any free nodes, lowest ids first — no shape
// constraint, no fragmentation, no locality.
type Scatter struct {
	used []bool
	free int
}

// NewScatter returns a scatter allocator over n nodes.
func NewScatter(n int) *Scatter {
	if n <= 0 {
		panic("alloc: need nodes > 0")
	}
	return &Scatter{used: make([]bool, n), free: n}
}

// Name implements Allocator.
func (s *Scatter) Name() string { return "scatter" }

// Nodes implements Allocator.
func (s *Scatter) Nodes() int { return len(s.used) }

// FreeCount implements Allocator.
func (s *Scatter) FreeCount() int { return s.free }

// Alloc implements Allocator.
func (s *Scatter) Alloc(n int) ([]int, bool) {
	if n <= 0 || n > len(s.used) {
		panic(fmt.Sprintf("alloc: bad request %d of %d", n, len(s.used)))
	}
	if n > s.free {
		return nil, false
	}
	out := make([]int, 0, n)
	for i := 0; i < len(s.used) && len(out) < n; i++ {
		if !s.used[i] {
			s.used[i] = true
			out = append(out, i)
		}
	}
	s.free -= n
	return out, true
}

// Free implements Allocator.
func (s *Scatter) Free(nodes []int) {
	for _, i := range nodes {
		if !s.used[i] {
			panic("alloc: double free")
		}
		s.used[i] = false
		s.free++
	}
}

// ContiguousTorus allocates axis-aligned boxes on an X×Y×Z torus (no
// wraparound boxes). A job of width n gets the smallest-volume box with
// at least n nodes; the whole box is charged to the job (internal
// fragmentation), matching partition-based machines of the era.
type ContiguousTorus struct {
	X, Y, Z int
	used    []bool
	free    int
	// boxes[n] holds width n's candidate box shapes, enumerated on the
	// first request of that width.
	boxes [][][3]int
}

// NewContiguousTorus returns a contiguous allocator over an x×y×z torus.
func NewContiguousTorus(x, y, z int) *ContiguousTorus {
	if x <= 0 || y <= 0 || z <= 0 {
		panic("alloc: torus dims must be positive")
	}
	n := x * y * z
	return &ContiguousTorus{X: x, Y: y, Z: z, used: make([]bool, n), free: n, boxes: make([][][3]int, n+1)}
}

// Name implements Allocator.
func (c *ContiguousTorus) Name() string { return "contiguous" }

// Nodes implements Allocator.
func (c *ContiguousTorus) Nodes() int { return len(c.used) }

// FreeCount implements Allocator.
func (c *ContiguousTorus) FreeCount() int { return c.free }

func (c *ContiguousTorus) idx(x, y, z int) int { return (z*c.Y+y)*c.X + x }

// Alloc implements Allocator.
func (c *ContiguousTorus) Alloc(n int) ([]int, bool) {
	if n <= 0 || n > len(c.used) {
		panic(fmt.Sprintf("alloc: bad request %d of %d", n, len(c.used)))
	}
	dims := c.boxes[n]
	if dims == nil {
		dims = c.candidateBoxes(n)
		c.boxes[n] = dims
	}
	for _, d := range dims {
		if nodes, ok := c.placeBox(d[0], d[1], d[2]); ok {
			c.free -= len(nodes)
			return nodes, true
		}
	}
	return nil, false
}

// candidateBoxes enumerates box shapes covering n nodes, smallest volume
// (least internal fragmentation) first, most-cubic first within a
// volume. The list is never empty: the X×Y footprint fits any width.
func (c *ContiguousTorus) candidateBoxes(n int) [][3]int {
	var out [][3]int
	for a := 1; a <= c.X; a++ {
		for b := 1; b <= c.Y; b++ {
			// Smallest depth covering n with this footprint.
			d := (n + a*b - 1) / (a * b)
			if d <= c.Z {
				out = append(out, [3]int{a, b, d})
			}
		}
	}
	surface := func(d [3]int) int {
		return d[0]*d[1] + d[1]*d[2] + d[0]*d[2]
	}
	sort.Slice(out, func(i, j int) bool {
		vi, vj := out[i][0]*out[i][1]*out[i][2], out[j][0]*out[j][1]*out[j][2]
		if vi != vj {
			return vi < vj
		}
		return surface(out[i]) < surface(out[j])
	})
	return out
}

// placeBox scans origins for an all-free a×b×d box and claims the first.
// A used cell at column x rules out every origin from ox to x, whose
// boxes all hold it, so the scan resumes at x+1; each row is checked
// right to left to find the furthest such cell first.
func (c *ContiguousTorus) placeBox(a, b, d int) ([]int, bool) {
	for oz := 0; oz+d <= c.Z; oz++ {
		for oy := 0; oy+b <= c.Y; oy++ {
		origin:
			for ox := 0; ox+a <= c.X; ox++ {
				for z := oz; z < oz+d; z++ {
					for y := oy; y < oy+b; y++ {
						for x := ox + a - 1; x >= ox; x-- {
							if c.used[c.idx(x, y, z)] {
								ox = x
								continue origin
							}
						}
					}
				}
				nodes := make([]int, 0, a*b*d)
				for z := oz; z < oz+d; z++ {
					for y := oy; y < oy+b; y++ {
						for x := ox; x < ox+a; x++ {
							i := c.idx(x, y, z)
							c.used[i] = true
							nodes = append(nodes, i)
						}
					}
				}
				return nodes, true
			}
		}
	}
	return nil, false
}

// Free implements Allocator.
func (c *ContiguousTorus) Free(nodes []int) {
	for _, i := range nodes {
		if !c.used[i] {
			panic("alloc: double free")
		}
		c.used[i] = false
		c.free++
	}
}

// dilation returns the mean pairwise hop distance among the given
// endpoint indices of graph g — the locality cost a job pays for its
// placement. Endpoint indices refer to g.Endpoints() order. It lists the
// endpoints' vertex ids in scratch, which it returns for the next call.
func dilation(g *topology.Graph, endpoints, scratch []int) (float64, []int) {
	eps := g.Endpoints()
	verts := scratch[:0]
	for _, a := range endpoints {
		verts = append(verts, eps[a])
	}
	n := len(verts)
	if n < 2 {
		return 0, verts
	}
	return float64(g.SumDist(verts)) / float64(n*(n-1)/2), verts
}

// Result summarizes an allocation-aware FCFS run.
type Result struct {
	Allocator string
	// Scheduling metrics, comparable with sched.Result.
	Utilization float64
	MeanWait    sim.Time
	Makespan    sim.Time
	// FragmentationStalls counts scheduling decisions where the head job
	// could not be placed despite enough free nodes (shape-induced).
	FragmentationStalls int
	// MeanDilation is the job-average pairwise hop distance of
	// placements on the torus.
	MeanDilation float64
	// MeanOverAllocation is the mean ratio of granted nodes to requested
	// width (internal fragmentation of box allocators).
	MeanOverAllocation float64
}

// SimulateFCFS runs jobs FCFS with explicit placement by the allocator
// on the torus graph g (used for dilation measurement; pass the graph
// matching the allocator's geometry). Jobs are mutated in place.
func SimulateFCFS(a Allocator, g *topology.Graph, jobs []*sched.Job) (Result, error) {
	if g.NumEndpoints() < a.Nodes() {
		return Result{}, fmt.Errorf("alloc: graph has %d endpoints for %d nodes", g.NumEndpoints(), a.Nodes())
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].Submit < jobs[j].Submit })
	for _, j := range jobs {
		if !finite(j.Submit) || !finite(j.Runtime) || !finite(j.Estimate) {
			return Result{}, fmt.Errorf("alloc: job %d has a non-finite time (submit %g, runtime %g, estimate %g)",
				j.ID, float64(j.Submit), float64(j.Runtime), float64(j.Estimate))
		}
		if j.Nodes <= 0 || j.Nodes > a.Nodes() || j.Runtime <= 0 {
			return Result{}, fmt.Errorf("alloc: job %d unusable (%d nodes, %v runtime)", j.ID, j.Nodes, j.Runtime)
		}
	}
	k := sim.New(1)
	res := Result{Allocator: a.Name()}
	var queue []*sched.Job
	var dilationSum, overSum float64
	var placed int
	var usedNodeSeconds float64
	var verts []int // dilation's scratch

	var dispatch func()
	dispatch = func() {
		for len(queue) > 0 {
			head := queue[0]
			nodes, ok := a.Alloc(head.Nodes)
			if !ok {
				if a.FreeCount() >= head.Nodes {
					res.FragmentationStalls++
				}
				return // strict FCFS: blocked head blocks the queue
			}
			queue = queue[1:]
			head.Start = k.Now()
			head.End = head.Start + head.Runtime
			placed++
			var d float64
			d, verts = dilation(g, nodes, verts)
			dilationSum += d
			overSum += float64(len(nodes)) / float64(head.Nodes)
			usedNodeSeconds += float64(len(nodes)) * float64(head.Runtime)
			nodesCopy := nodes
			k.At(head.End, func() {
				a.Free(nodesCopy)
				dispatch()
			})
		}
	}
	// Arrivals fire in submit order, which is jobs order, so one handler
	// admits the next job each time.
	arrived := 0
	arrive := func() {
		queue = append(queue, jobs[arrived])
		arrived++
		dispatch()
	}
	for _, j := range jobs {
		k.At(j.Submit, arrive)
	}
	k.Run()
	if len(queue) > 0 {
		return Result{}, fmt.Errorf("alloc: %d jobs never placed", len(queue))
	}
	var waits, makespan sim.Time
	for _, j := range jobs {
		waits += j.Wait()
		if j.End > makespan {
			makespan = j.End
		}
	}
	res.MeanWait = waits / sim.Time(len(jobs))
	res.Makespan = makespan
	if makespan > 0 {
		res.Utilization = usedNodeSeconds / (float64(a.Nodes()) * float64(makespan))
	}
	if placed > 0 {
		res.MeanDilation = dilationSum / float64(placed)
		res.MeanOverAllocation = overSum / float64(placed)
	}
	return res, nil
}

func finite(t sim.Time) bool { return !math.IsNaN(float64(t)) && !math.IsInf(float64(t), 0) }

// RandomScatter allocates uniformly random free nodes — the worst-case
// locality of a scatter allocator under churn, and the standard
// pessimistic baseline in the placement literature.
type RandomScatter struct {
	used    []bool
	free    int
	rng     *rand.Rand
	freeIdx []int // Alloc's list of free nodes to shuffle
}

// NewRandomScatter returns a random-scatter allocator over n nodes.
func NewRandomScatter(n int, seed int64) *RandomScatter {
	if n <= 0 {
		panic("alloc: need nodes > 0")
	}
	return &RandomScatter{used: make([]bool, n), free: n, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Allocator.
func (s *RandomScatter) Name() string { return "random-scatter" }

// Nodes implements Allocator.
func (s *RandomScatter) Nodes() int { return len(s.used) }

// FreeCount implements Allocator.
func (s *RandomScatter) FreeCount() int { return s.free }

// Alloc implements Allocator.
func (s *RandomScatter) Alloc(n int) ([]int, bool) {
	if n <= 0 || n > len(s.used) {
		panic(fmt.Sprintf("alloc: bad request %d of %d", n, len(s.used)))
	}
	if n > s.free {
		return nil, false
	}
	freeIdx := s.freeIdx[:0]
	for i, u := range s.used {
		if !u {
			freeIdx = append(freeIdx, i)
		}
	}
	s.freeIdx = freeIdx
	s.rng.Shuffle(len(freeIdx), func(i, j int) { freeIdx[i], freeIdx[j] = freeIdx[j], freeIdx[i] })
	out := append([]int(nil), freeIdx[:n]...)
	for _, i := range out {
		s.used[i] = true
	}
	s.free -= n
	sort.Ints(out)
	return out, true
}

// Free implements Allocator.
func (s *RandomScatter) Free(nodes []int) {
	for _, i := range nodes {
		if !s.used[i] {
			panic("alloc: double free")
		}
		s.used[i] = false
		s.free++
	}
}
