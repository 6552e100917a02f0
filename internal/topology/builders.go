package topology

import "fmt"

// Crossbar returns n endpoints attached to a single ideal switch — the
// model of a small cluster hanging off one non-blocking switch.
func Crossbar(n int) *Graph {
	if n < 1 {
		panic("topology: crossbar needs at least 1 endpoint")
	}
	g := NewGraph(fmt.Sprintf("crossbar-%d", n))
	sw := g.AddVertex(Vertex{Label: "sw"})
	for i := 0; i < n; i++ {
		ep := g.AddVertex(Vertex{Endpoint: true, Label: fmt.Sprintf("n%d", i)})
		g.AddEdge(ep, sw)
	}
	g.BisectionLinks = (n + 1) / 2
	g.attachAnalytic(make([]int32, n+1), crossbarDist) // all vertices sit at the one switch
	mustFinalize(g)
	return g
}

// FatTree returns a k-ary n-tree (Petrini & Vanneschi): arity k, n switch
// levels, k^n endpoints, n·k^(n-1) switches, full bisection bandwidth.
// This is the folded-Clos structure of Myrinet, Quadrics, and InfiniBand
// cluster fabrics.
func FatTree(k, n int) *Graph {
	if k < 2 || n < 1 {
		panic("topology: fat tree needs arity >= 2 and levels >= 1")
	}
	numEP := pow(k, n)
	perLevel := pow(k, n-1)
	g := NewGraph(fmt.Sprintf("fattree-%d-ary-%d-tree", k, n))
	// Endpoints first: ids 0..k^n-1.
	for p := 0; p < numEP; p++ {
		g.AddVertex(Vertex{Endpoint: true, Label: fmt.Sprintf("n%d", p)})
	}
	// Switch (l, w) at id numEP + l*perLevel + w.
	swID := func(l, w int) int { return numEP + l*perLevel + w }
	for l := 0; l < n; l++ {
		for w := 0; w < perLevel; w++ {
			g.AddVertex(Vertex{Label: fmt.Sprintf("sw%d.%d", l, w)})
		}
	}
	// Endpoint p attaches to leaf switch whose index is p's top n-1 digits.
	for p := 0; p < numEP; p++ {
		g.AddEdge(p, swID(0, p/k))
	}
	// Switch <w,l> connects to <w',l+1> iff w and w' agree on all base-k
	// digits except digit l.
	for l := 0; l < n-1; l++ {
		stride := pow(k, l)
		for w := 0; w < perLevel; w++ {
			digit := (w / stride) % k
			base := w - digit*stride
			for x := 0; x < k; x++ {
				g.AddEdge(swID(l, w), swID(l+1, base+x*stride))
			}
		}
	}
	g.BisectionLinks = numEP / 2
	mustFinalize(g)
	return g
}

// Torus2D returns a w×h 2D torus direct network: each grid point is a
// router with an attached endpoint, with wraparound links in both
// dimensions. A dimension of width 2 or less gets no wraparound link: it
// would duplicate the existing neighbor link.
func Torus2D(w, h int) *Graph {
	if w < 1 || h < 1 {
		panic("topology: grid dimensions must be positive")
	}
	g := NewGraph(fmt.Sprintf("torus2d-%dx%d", w, h))
	routers := make([]int, w*h)
	coord := make([]int32, 2*w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			routers[i] = g.AddVertex(Vertex{Label: fmt.Sprintf("r%d.%d", x, y)})
			ep := g.AddVertex(Vertex{Endpoint: true, Label: fmt.Sprintf("n%d.%d", x, y)})
			g.AddEdge(ep, routers[i])
			coord[routers[i]], coord[ep] = int32(i), int32(i)
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			if x+1 < w {
				g.AddEdge(routers[i], routers[y*w+x+1])
			} else if w > 2 {
				g.AddEdge(routers[i], routers[y*w])
			}
			if y+1 < h {
				g.AddEdge(routers[i], routers[(y+1)*w+x])
			} else if h > 2 {
				g.AddEdge(routers[i], routers[x])
			}
		}
	}
	// Bisect perpendicular to the longest dimension.
	long, short := w, h
	if h > w {
		long, short = h, w
	}
	g.BisectionLinks = short
	if long > 2 {
		g.BisectionLinks = 2 * short
	}
	g.attachAnalytic(coord, torus2dDist(w, h))
	mustFinalize(g)
	return g
}

// Torus3D returns an x×y×z 3D torus direct network.
func Torus3D(x, y, z int) *Graph {
	if x < 1 || y < 1 || z < 1 {
		panic("topology: torus dimensions must be positive")
	}
	g := NewGraph(fmt.Sprintf("torus3d-%dx%dx%d", x, y, z))
	idx := func(i, j, k int) int { return (k*y+j)*x + i }
	routers := make([]int, x*y*z)
	coord := make([]int32, 2*x*y*z)
	for k := 0; k < z; k++ {
		for j := 0; j < y; j++ {
			for i := 0; i < x; i++ {
				routers[idx(i, j, k)] = g.AddVertex(Vertex{Label: fmt.Sprintf("r%d.%d.%d", i, j, k)})
				ep := g.AddVertex(Vertex{Endpoint: true, Label: fmt.Sprintf("n%d.%d.%d", i, j, k)})
				g.AddEdge(ep, routers[idx(i, j, k)])
				coord[routers[idx(i, j, k)]], coord[ep] = int32(idx(i, j, k)), int32(idx(i, j, k))
			}
		}
	}
	link := func(a, b int) { g.AddEdge(routers[a], routers[b]) }
	for k := 0; k < z; k++ {
		for j := 0; j < y; j++ {
			for i := 0; i < x; i++ {
				if i+1 < x {
					link(idx(i, j, k), idx(i+1, j, k))
				} else if x > 2 {
					link(idx(i, j, k), idx(0, j, k))
				}
				if j+1 < y {
					link(idx(i, j, k), idx(i, j+1, k))
				} else if y > 2 {
					link(idx(i, j, k), idx(i, 0, k))
				}
				if k+1 < z {
					link(idx(i, j, k), idx(i, j, k+1))
				} else if z > 2 {
					link(idx(i, j, k), idx(i, j, 0))
				}
			}
		}
	}
	long := max3(x, y, z)
	cross := x * y * z / long
	g.BisectionLinks = cross
	if long > 2 {
		g.BisectionLinks = 2 * cross
	}
	g.attachAnalytic(coord, torus3dDist(x, y, z))
	mustFinalize(g)
	return g
}

// Hypercube returns a dim-dimensional binary hypercube with 2^dim
// router+endpoint pairs.
func Hypercube(dim int) *Graph {
	if dim < 0 || dim > 20 {
		panic("topology: hypercube dimension out of range")
	}
	n := 1 << uint(dim)
	g := NewGraph(fmt.Sprintf("hypercube-%d", dim))
	routers := make([]int, n)
	coord := make([]int32, 2*n)
	for i := 0; i < n; i++ {
		routers[i] = g.AddVertex(Vertex{Label: fmt.Sprintf("r%d", i)})
		ep := g.AddVertex(Vertex{Endpoint: true, Label: fmt.Sprintf("n%d", i)})
		g.AddEdge(ep, routers[i])
		coord[routers[i]], coord[ep] = int32(i), int32(i)
	}
	for i := 0; i < n; i++ {
		for b := 0; b < dim; b++ {
			j := i ^ (1 << uint(b))
			if j > i {
				g.AddEdge(routers[i], routers[j])
			}
		}
	}
	g.BisectionLinks = n / 2
	if dim == 0 {
		g.BisectionLinks = 1
	}
	g.attachAnalytic(coord, hypercubeDist)
	mustFinalize(g)
	return g
}

func mustFinalize(g *Graph) {
	if err := g.Finalize(); err != nil {
		panic(err)
	}
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

func max3(a, b, c int) int {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}
