package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"northstar/internal/experiments"
	"northstar/internal/machine"
	"northstar/internal/mc"
	"northstar/internal/msg"
	"northstar/internal/network"
	"northstar/internal/node"
	"northstar/internal/obs"
	"northstar/internal/tech"
)

// sizes are the counts and durations of one run; every workload runs
// the same code at any sizes. benchSizes are the benchmark. testSizes
// shorten the tests' runs, shrink the cache serve_mixed fills, and
// shrink the collectives machine to 64 ranks, because the race detector
// takes a 1024-rank machine past 4 GB; a test built without it checks
// the 1024-rank reference end time.
type sizes struct {
	ranks      int   // ranks of the collectives machine
	warmups    int   // untimed collectives iterations
	cacheBytes int64 // the service's cache budget; 0 is its default
	replay     int   // requests a traced serve run replays through the stage functions
	replayRuns int   // most distinct keys the replay runs, renders and encodes
	routePairs int   // vertex pairs of the route rungs
	setupReps  int   // processes an untraced run sets up in, for setup_s
	ladder     time.Duration
	rungTarget time.Duration
}

var (
	benchSizes = sizes{
		ranks: 1024, warmups: 3, replay: 5000, replayRuns: 200, routePairs: 10000,
		setupReps: 3, ladder: time.Second, rungTarget: 100 * time.Millisecond,
	}
	testSizes = sizes{
		ranks: 64, warmups: 1, cacheBytes: 256 << 10, replay: 100, replayRuns: 15,
		routePairs: 200, setupReps: 2, rungTarget: time.Millisecond,
	}
)

// maxErrors bounds the failure descriptions a run keeps; the counts
// are exact regardless.
const maxErrors = 20

// env is what one workload process shares between its ops: the run's
// configuration and the attempted/failed op counts.
type env struct {
	cfg  runConfig
	size sizes

	attempted, failed atomic.Int64
	mu                sync.Mutex
	errs              []string
}

// op records one attempted op and, when err is non-nil, its failure.
func (e *env) op(err error) {
	e.attempted.Add(1)
	if err == nil {
		return
	}
	e.failed.Add(1)
	e.mu.Lock()
	if len(e.errs) < maxErrors {
		e.errs = append(e.errs, err.Error())
	}
	e.mu.Unlock()
}

// workload is one benchmark workload inside its own process.
type workload interface {
	// setup builds the inputs and runs the untimed warm-up, whose ops
	// are checked and counted like timed ones.
	setup(e *env) error
	// run executes ops until d has passed (at least one) and returns
	// each op's host duration and the loop's wall clock. With a tracer
	// it also records spans and counts.
	run(e *env, d time.Duration, tr *tracer) ([]time.Duration, time.Duration)
	close()
}

// replayer is a workload whose traced run ends with an untimed replay.
type replayer interface {
	replay(e *env, tr *tracer)
}

// workloadNames are the workloads in report order; each belongs to one
// of the layer groups a traced run must cover (see ladderWorkload).
var workloadNames = []string{"suite", "collectives_1k", "serve_hot", "serve_mixed"}

var workloadGroup = map[string]string{
	"suite":          "suite",
	"collectives_1k": "collectives",
	"serve_hot":      "serve",
	"serve_mixed":    "serve",
}

// ladderWorkload names, per group, the workload a traced run of another
// group runs briefly so that every per-layer metric is measured in every
// traced run. serve_mixed stands for serve because it has misses.
var ladderWorkload = map[string]string{
	"suite":       "suite",
	"collectives": "collectives_1k",
	"serve":       "serve_mixed",
}

func newWorkload(name string, size sizes) (workload, error) {
	switch name {
	case "suite":
		return &suiteWorkload{}, nil
	case "collectives_1k":
		return newCollectives(size)
	case "serve_hot":
		return &serveWorkload{}, nil
	case "serve_mixed":
		return &serveWorkload{mixed: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// loopSerial runs op back to back until d has passed.
func loopSerial(d time.Duration, op func() time.Duration) ([]time.Duration, time.Duration) {
	start := time.Now()
	var durs []time.Duration
	for len(durs) == 0 || time.Since(start) < d {
		durs = append(durs, op())
	}
	return durs, time.Since(start)
}

// Trace tracks: each kind of span gets its own rows in the viewer.
const (
	tidCollectives = 1
	tidReplay      = 2
	tidHandler     = 3
	tidClient      = 10 // + client index
	tidRender      = 20
	tidSpec        = 30 // + spec index
)

// ---- suite ----

// suiteWorkload is the default cmd/experiments path: the whole suite on
// a GOMAXPROCS-wide worker pool with no Monte Carlo helpers. Each pass's
// output must hash to the committed reference output.
type suiteWorkload struct {
	ref [sha256.Size]byte
}

// suiteReferencePath is the committed full-scale output every suite pass
// must print, relative to the repository root.
var suiteReferencePath = filepath.Join("results", "full_output.txt")

func goldenPath(root, id string) string {
	return filepath.Join(root, "internal", "experiments", "testdata", "golden", id+".table")
}

func (w *suiteWorkload) setup(e *env) error {
	ref, err := os.ReadFile(filepath.Join(e.cfg.Root, suiteReferencePath))
	if err != nil {
		return fmt.Errorf("suite reference: %w", err)
	}
	w.ref = sha256.Sum256(ref)
	mc.SetDefaultWorkers(0)
	w.pass(e, nil)
	return nil
}

func (w *suiteWorkload) run(e *env, d time.Duration, tr *tracer) ([]time.Duration, time.Duration) {
	return loopSerial(d, func() time.Duration { return w.pass(e, tr) })
}

func (w *suiteWorkload) close() {}

// pass runs the suite once. Traced, each spec's Run is wrapped in a
// span (Cost is kept, so the longest-first dispatch order is the same)
// and the returned tables are rendered again, one span per table.
func (w *suiteWorkload) pass(e *env, tr *tracer) time.Duration {
	opts := experiments.Options{Workers: runtime.GOMAXPROCS(0)}
	h := sha256.New()
	start := time.Now()
	var tables []*experiments.Table
	var err error
	if tr == nil {
		_, err = experiments.RunSuite(h, opts)
	} else {
		tables, err = experiments.RunSpecs(h, tracedSpecs(tr), opts)
	}
	d := time.Since(start)
	if err == nil && [sha256.Size]byte(h.Sum(nil)) != w.ref {
		err = fmt.Errorf("suite output sha256 %x differs from the reference", h.Sum(nil))
	}
	if tr != nil && err == nil {
		h.Reset()
		for _, t := range tables {
			t0 := time.Now()
			t.Fprint(h) // a hash write cannot fail
			tr.span("render", tidRender, t0, time.Since(t0), 0)
		}
		if [sha256.Size]byte(h.Sum(nil)) != w.ref {
			err = fmt.Errorf("re-rendered suite tables differ from the reference")
		}
	}
	e.op(err)
	return d
}

func tracedSpecs(tr *tracer) []experiments.Spec {
	specs := experiments.All()
	for i := range specs {
		id, run, tid := specs[i].ID, specs[i].Run, tidSpec+i
		specs[i].Run = func(quick bool) (*experiments.Table, error) {
			start := time.Now()
			t, err := run(quick)
			tr.span("spec."+id, tid, start, time.Since(start), 0)
			return t, err
		}
	}
	return specs
}

// ---- collectives_1k ----

// collectiveEndBits pins the virtual end time of one collectives
// iteration (math.Float64bits) per machine size. The program is
// deterministic, so any other value is a wrong result.
var collectiveEndBits = map[int]uint64{
	1024: 0x3f757a02e1114ef0,
	64:   0x3f62ac0128c596cc,
}

// collectivesWorkload builds a fresh packet-level machine every
// iteration (Myrinet-2000 on a 3-D torus) and runs
// Barrier; Allreduce(8); Allreduce(8); Bcast(0, 64 KiB) on it.
type collectivesWorkload struct {
	cfg     machine.Config
	wantEnd uint64
	warmups int
}

func newCollectives(size sizes) (*collectivesWorkload, error) {
	want, ok := collectiveEndBits[size.ranks]
	if !ok {
		return nil, fmt.Errorf("no reference end time for %d ranks", size.ranks)
	}
	return &collectivesWorkload{
		cfg: machine.Config{
			Nodes:       size.ranks,
			Node:        node.MustBuild(node.Conventional, tech.Default2002(), 2002),
			Fabric:      network.Myrinet2000(),
			PacketLevel: true,
			Topology:    machine.TopoTorus3D,
			Seed:        1,
		},
		wantEnd: want,
		warmups: size.warmups,
	}, nil
}

func (w *collectivesWorkload) setup(e *env) error {
	for i := 0; i < w.warmups; i++ {
		w.iteration(e, nil)
	}
	return nil
}

func (w *collectivesWorkload) run(e *env, d time.Duration, tr *tracer) ([]time.Duration, time.Duration) {
	return loopSerial(d, func() time.Duration { return w.iteration(e, tr) })
}

func (w *collectivesWorkload) close() {}

var phaseSpans = [4]string{"phase.barrier", "phase.allreduce", "phase.allreduce", "phase.bcast"}

// iteration builds the machine and runs the collectives program on it.
// Rank 0 notes the host time as each of its collectives returns; traced,
// those marks become the phase spans and the kernel and fabric probes
// give the event and traffic counts.
func (w *collectivesWorkload) iteration(e *env, tr *tracer) time.Duration {
	start := time.Now()
	m, err := machine.New(w.cfg)
	if err != nil {
		e.op(err)
		return time.Since(start)
	}
	built := time.Now()
	var kp *obs.KernelProbe
	var dp *obs.DomainProbe
	if tr != nil {
		kp, dp = obs.NewKernelProbe(), obs.NewDomainProbe()
		m.Kernel().SetProbe(kp)
		f, ok := m.Fabric().(interface{ SetProbe(network.Probe) })
		if !ok {
			e.op(fmt.Errorf("fabric %T takes no probe", m.Fabric()))
			return time.Since(start)
		}
		f.SetProbe(dp)
	}
	var marks [len(phaseSpans) + 1]time.Time
	end, err := msg.Run(m, msg.Options{}, func(r *msg.Rank) {
		mark := func(i int) {
			if r.ID() == 0 {
				marks[i] = time.Now()
			}
		}
		mark(0)
		r.Barrier()
		mark(1)
		r.Allreduce(8)
		mark(2)
		r.Allreduce(8)
		mark(3)
		r.Bcast(0, 64<<10)
		mark(4)
	})
	d := time.Since(start)
	if got := math.Float64bits(float64(end)); err == nil && got != w.wantEnd {
		err = fmt.Errorf("collectives ended at %v (bits %#x), want bits %#x", end, got, w.wantEnd)
	}
	e.op(err)
	if tr == nil || err != nil {
		return d
	}
	tr.span("machine_build", tidCollectives, start, built.Sub(start), 0)
	for i, name := range phaseSpans {
		tr.span(name, tidCollectives, marks[i], marks[i+1].Sub(marks[i]), 0)
	}
	events := float64(kp.Fired())
	tr.sample("kernel.events", events)
	tr.sample("kernel.peak_pending", float64(kp.PeakPending()))
	tr.sample("kernel.ns_per_event", float64(d-built.Sub(start))/events)
	scope := obs.NewRegistry().Scope("collectives")
	dp.PublishTo(scope, end.Seconds())
	packet := scope.Domain("network").Domain(network.KindPacket.String())
	tr.sample("fabric.messages", float64(dp.Messages(network.KindPacket)))
	tr.sample("fabric.packets", float64(packet.Counter("packets_injected")))
	tr.sample("fabric.link_utilization", packet.Gauge("utilization"))
	return d
}
