package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"time"

	"northstar/internal/experiments"
	"northstar/internal/machine"
	"northstar/internal/mc"
	"northstar/internal/msg"
	"northstar/internal/network"
	"northstar/internal/node"
	"northstar/internal/obs"
	"northstar/internal/serve"
	"northstar/internal/sim"
	"northstar/internal/tech"
	"northstar/internal/topology"
)

// A rung is an isolated loop over one public function of one layer,
// reported as host ns and heap allocations per op. Every traced run
// measures every rung.

// rungResult is one rung's measurement.
type rungResult struct {
	name     string
	nsOp     float64
	allocsOp float64
}

// measure calibrates n like testing.B until one timed run of prepare(n)'s
// function lasts at least target, and reports that run. prepare builds
// the state for n ops outside the timing.
func measure(name string, target time.Duration, prepare func(n int) func()) rungResult {
	n := 1
	for {
		el, r := timeOps(name, n, prepare(n))
		if el >= target || n >= 1e9 {
			return r
		}
		next := n * 100
		if el > 0 {
			next = min(next, int(float64(n)*1.2*float64(target)/float64(el))+1)
		}
		n = max(next, n+1)
	}
}

// timeOps runs ops, which performs n ops, after a collection and
// returns its duration and the per-op result.
func timeOps(name string, n int, ops func()) (time.Duration, rungResult) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ops()
	el := time.Since(start)
	runtime.ReadMemStats(&after)
	return el, rungResult{name, float64(el.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)}
}

// runRungs measures every rung. Inputs that vary come from seed.
func runRungs(size sizes, seed int64) ([]rungResult, error) {
	target := size.rungTarget
	var out []rungResult
	add := func(name string, prepare func(n int) func()) {
		out = append(out, measure(name, target, prepare))
	}

	// sim: the event kernel, its two queues at three depths, procs.
	add("kernel_event", kernelChain(false))
	add("kernel_event_probed", kernelChain(true))
	for _, kind := range []sim.QueueKind{sim.QueueHeap, sim.QueueCalendar} {
		for _, depth := range []int{10, 1000, 100000} {
			add(fmt.Sprintf("queue.%s.%d", kind, depth), queueChurn(kind, depth))
		}
	}
	add("proc_handoff", func(n int) func() {
		k := sim.New(1)
		k.Go(func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Wait(sim.Microsecond)
			}
		})
		return func() { k.Run() }
	})

	// network: one send chain per fabric model, 64 endpoints each.
	node2002 := node.MustBuild(node.Conventional, tech.Default2002(), 2002)
	fabrics := []struct {
		name string
		make func(k *sim.Kernel) (network.Fabric, error)
	}{
		{"loggp", func(k *sim.Kernel) (network.Fabric, error) {
			return network.NewLogGP(k, network.Myrinet2000(), 64), nil
		}},
		{"wormhole", func(k *sim.Kernel) (network.Fabric, error) {
			return network.NewWormholeNet(k, network.Myrinet2000(), topology.FatTree(4, 3), 0), nil
		}},
		{"circuit", func(k *sim.Kernel) (network.Fabric, error) {
			return network.NewCircuit(k, network.OpticalCircuit(), 64), nil
		}},
		{"hierarchical", func(k *sim.Kernel) (network.Fabric, error) {
			intra := network.NewLogGP(k, network.SharedMemory(node2002.MemBandwidth), 64)
			return network.NewHierarchical(intra, network.NewLogGP(k, network.Myrinet2000(), 16), 4)
		}},
		{"packet", func(k *sim.Kernel) (network.Fabric, error) {
			return network.NewPacketNet(k, network.Myrinet2000(), topology.Torus2D(8, 8)), nil
		}},
	}
	for _, f := range fabrics {
		if _, err := f.make(sim.New(1)); err != nil {
			return nil, fmt.Errorf("rung fabric %s: %w", f.name, err)
		}
		add("fabric_send."+f.name, sendChain(f.make, false))
	}
	add("fabric_send.packet_probed", sendChain(fabrics[len(fabrics)-1].make, true))

	// msg: a 64-rank allreduce on a fresh LogGP machine per op.
	var allreduceErr error
	add("allreduce_64", func(n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				m, err := machine.New(machine.Config{Nodes: 64, Node: node2002, Fabric: network.InfiniBand4X(), Seed: 1})
				if err == nil {
					_, err = msg.Run(m, msg.Options{}, func(r *msg.Rank) { r.Allreduce(65536) })
				}
				if err != nil {
					allreduceErr = err
				}
			}
		}
	})
	if allreduceErr != nil {
		return nil, fmt.Errorf("rung allreduce_64: %w", allreduceErr)
	}

	// mc: one Do of 2*GOMAXPROCS trivial tasks on a GOMAXPROCS-wide pool.
	pool := mc.NewPool(runtime.GOMAXPROCS(0) - 1)
	var sink atomic.Int64
	tasks := make([]func(), 2*runtime.GOMAXPROCS(0))
	for i := range tasks {
		tasks[i] = func() { sink.Add(1) }
	}
	add("mc_do", func(n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				pool.Do(tasks)
			}
		}
	})
	pool.Close()

	// topology: RouteAppend over seeded pairs on a fresh 11^3 torus
	// (cold: every destination's tree is built on first use), then the
	// same pairs again on the same graph (warm).
	out = append(out, routeRungs(size.routePairs, seed)...)

	// serve and experiments: the request stages and table rendering.
	sr, err := serveRungs(target)
	if err != nil {
		return nil, err
	}
	return append(out, sr...), nil
}

func kernelChain(probed bool) func(n int) func() {
	return func(n int) func() {
		k := sim.New(1)
		if probed {
			k.SetProbe(obs.NewKernelProbe())
		}
		rng := rand.New(rand.NewSource(7))
		fired := 0
		var fn func()
		fn = func() {
			if fired < n {
				fired++
				k.After(sim.Time(rng.Float64()), fn)
			}
		}
		k.After(0, fn)
		return func() { k.Run() }
	}
}

// queueChurn holds depth events pending on one queue backend while every
// fired event schedules another: the op is one fire plus one push.
func queueChurn(kind sim.QueueKind, depth int) func(n int) func() {
	return func(n int) func() {
		k := sim.NewOnQueue(1, kind)
		rng := rand.New(rand.NewSource(7))
		horizon := sim.Time(depth) * sim.Microsecond
		fired, target := 0, max(depth, 1000)
		var fn func()
		fn = func() {
			fired++
			k.After(sim.Time(rng.Float64())*horizon, fn)
			if fired >= target {
				k.Stop()
			}
		}
		for i := 0; i < depth; i++ {
			k.After(sim.Time(rng.Float64())*horizon, fn)
		}
		k.Run() // warm: capacities and the calendar's window settle
		fired, target = 0, n
		return func() { k.Run() }
	}
}

// sendChain sends n messages of 2-5 packets between random endpoint
// pairs, each send issued when the previous message is delivered.
func sendChain(mk func(*sim.Kernel) (network.Fabric, error), probed bool) func(n int) func() {
	return func(n int) func() {
		k := sim.New(1)
		f, _ := mk(k) // the constructor was checked once before measuring
		if probed {
			f.(interface{ SetProbe(network.Probe) }).SetProbe(obs.NewDomainProbe())
		}
		eps := f.NumEndpoints()
		rng := rand.New(rand.NewSource(7))
		sent := 0
		var send func()
		send = func() {
			if sent >= n {
				return
			}
			sent++
			src := rng.Intn(eps)
			dst := rng.Intn(eps - 1)
			if dst >= src {
				dst++
			}
			f.Send(src, dst, 4096*(2+rng.Int63n(4)), nil, send)
		}
		k.After(0, send)
		return func() { k.Run() }
	}
}

func routeRungs(pairs int, seed int64) []rungResult {
	g := topology.Torus3D(11, 11, 11)
	eps := g.Endpoints()
	rng := rand.New(rand.NewSource(seed))
	src, dst := make([]int, pairs), make([]int, pairs)
	for i := range src {
		src[i], dst[i] = eps[rng.Intn(len(eps))], eps[rng.Intn(len(eps))]
	}
	var edges, verts []int
	pass := func(name string) rungResult {
		_, r := timeOps(name, pairs, func() {
			for i := range src {
				edges, verts = g.RouteAppend(src[i], dst[i], edges, verts)
			}
		})
		return r
	}
	return []rungResult{pass("route.torus3d_1k_cold"), pass("route.torus3d_1k_warm")}
}

// serveRungs time the service's request stages on one seeded request
// for a registered scenario, a cache hit through the handler, and
// rendering that scenario's table.
func serveRungs(target time.Duration) ([]rungResult, error) {
	body := []byte(`{"id":"E7","quick":true,"seed":7}`)
	decode := func() (serve.Request, error) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req serve.Request
		return req, dec.Decode(&req)
	}
	req, err := decode()
	if err != nil {
		return nil, err
	}
	sc, err := experiments.ScenarioByID(req.ID)
	if err != nil {
		return nil, err
	}
	resolved := sc.WithOverrides(req.Params, req.Seed)
	tab, err := resolved.Run(true)
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{})
	defer srv.Close()
	h := srv.Handler()
	post := func() int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/scenario", bytes.NewReader(body)))
		return rec.Code
	}
	if code := post(); code != http.StatusOK {
		return nil, fmt.Errorf("serve rung warm-up: status %d", code)
	}
	loop := func(op func()) func(n int) func() {
		return func(n int) func() {
			return func() {
				for i := 0; i < n; i++ {
					op()
				}
			}
		}
	}
	return []rungResult{
		measure("serve.decode", target, loop(func() { decode() })),
		measure("serve.resolve", target, loop(func() {
			s, _ := experiments.ScenarioByID(req.ID)
			s.WithOverrides(req.Params, req.Seed).Validate()
		})),
		measure("serve.fingerprint", target, loop(func() { resolved.Fingerprint(true) })),
		measure("serve.handler_hit", target, loop(func() { post() })),
		measure("table_render", target, loop(func() { _ = tab.String() })),
	}, nil
}
