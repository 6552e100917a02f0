package topology

import "math/rand"

// Diameter returns the maximum endpoint-to-endpoint hop count. For
// graphs with more than maxExact endpoints it samples pairs instead of
// enumerating all of them, which can only underestimate.
func (g *Graph) Diameter() int {
	const maxExact = 256
	eps := g.endpoints
	d := 0
	if len(eps) <= maxExact {
		for _, dst := range eps {
			for _, src := range eps {
				if h := g.Dist(src, dst); h > d {
					d = h
				}
			}
		}
		return d
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		dst := eps[rng.Intn(len(eps))]
		for _, src := range eps {
			if h := g.Dist(src, dst); h > d {
				d = h
			}
		}
	}
	return d
}

// AvgDistance returns the mean endpoint-to-endpoint hop count over
// distinct pairs (sampled for large graphs).
func (g *Graph) AvgDistance() float64 {
	const maxExact = 128
	eps := g.endpoints
	if len(eps) < 2 {
		return 0
	}
	var total, count float64
	if len(eps) <= maxExact {
		for _, dst := range eps {
			for _, src := range eps {
				if src == dst {
					continue
				}
				total += float64(g.Dist(src, dst))
				count++
			}
		}
		return total / count
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		src := eps[rng.Intn(len(eps))]
		dst := eps[rng.Intn(len(eps))]
		if src == dst {
			continue
		}
		total += float64(g.Dist(src, dst))
		count++
	}
	return total / count
}
