// Package mc is the shared map-reduce engine for the repository's Monte
// Carlo loops. It partitions replications into shards, runs the shards on
// a bounded pool of helper goroutines, and leaves reduction to the
// caller over per-replication storage — so a sharded run reduces in
// replication order and is bit-identical to the sequential loop for any
// shard count and any pool size.
//
// Seeding contract: Replicate hands replication r a *rand.Rand seeded
// with stats.Substream(seed, r). A replication's draws are therefore a
// pure function of (seed, r) — never of which shard or goroutine ran it.
//
// Budgeting: the pool is sized against the suite-level parallelism so
// nested parallelism (suite workers × intra-experiment shards) cannot
// oversubscribe the host; see SetDefaultWorkers.
package mc

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"northstar/internal/stats"
)

// A Pool owns a fixed set of helper goroutines that execute tasks for
// Do. The goroutine calling Do always participates too, so a Pool with 0
// helpers degrades to plain sequential execution with no goroutines and
// no channel traffic.
type Pool struct {
	jobs      chan func()
	helpers   int
	closeOnce sync.Once
}

// NewPool starts a pool with the given number of helper goroutines
// (clamped at 0). The helpers idle on an unbuffered channel until Do
// hands them work.
func NewPool(helpers int) *Pool {
	if helpers < 0 {
		helpers = 0
	}
	p := &Pool{jobs: make(chan func()), helpers: helpers}
	for i := 0; i < helpers; i++ {
		go func() {
			for f := range p.jobs {
				f()
			}
		}()
	}
	return p
}

// Workers reports the total execution width of the pool: helpers plus
// the calling goroutine.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.helpers + 1
}

// Close stops the helper goroutines. Closing twice is a no-op. The pool
// must not be used after Close; Do on a closed pool panics.
func (p *Pool) Close() {
	if p != nil && p.helpers > 0 {
		p.closeOnce.Do(func() { close(p.jobs) })
	}
}

// taskPanic is the value Do re-panics with when a task panicked: the
// task's own panic value and the stack of the goroutine that ran it.
type taskPanic struct {
	value any
	stack []byte
}

func (tp *taskPanic) String() string {
	return fmt.Sprintf("%v [recovered from an mc task]\n%s", tp.value, tp.stack)
}

// Do executes every task and returns when all have finished. Tasks are
// pulled from a shared index by the calling goroutine and by any helper
// that is idle at submission time; hand-off is non-blocking, so a task
// that itself calls Do (nested parallelism) runs its inner tasks inline
// rather than deadlocking on a busy pool. A nil pool runs everything
// inline.
//
// A panicking task never takes down a helper goroutine (and with it the
// process): the first panic is recovered where it happened, no further
// tasks are handed out, and once every running task has finished Do
// re-panics on its caller with the task's value and stack.
func (p *Pool) Do(tasks []func()) {
	n := len(tasks)
	if n == 0 {
		return
	}
	run := func(t func()) { t() }
	if pp := propagator.Load(); pp != nil {
		if w := (*pp)(); w != nil {
			run = w
		}
	}
	var next atomic.Int64
	var failed atomic.Pointer[taskPanic]
	body := func() {
		defer func() {
			if r := recover(); r != nil {
				tp, nested := r.(*taskPanic) // a nested Do already wrapped it
				if !nested {
					tp = &taskPanic{value: r, stack: debug.Stack()}
				}
				failed.CompareAndSwap(nil, tp)
				next.Store(int64(n)) // hand out no further tasks
			}
		}()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			run(tasks[i])
		}
	}
	var wg sync.WaitGroup
	if p != nil {
		for i := 0; i < p.helpers && i < n-1; i++ {
			wg.Add(1)
			helper := func() { defer wg.Done(); body() }
			sent := false
			select {
			case p.jobs <- helper:
				sent = true
			default:
			}
			if !sent {
				// No helper is idle right now; don't wait for one.
				wg.Done()
				break
			}
		}
	}
	body()
	wg.Wait()
	if tp := failed.Load(); tp != nil {
		panic(tp)
	}
}

var defaultPool atomic.Pointer[Pool]

// Default returns the process-wide pool, creating it on first use with
// GOMAXPROCS-1 helpers.
func Default() *Pool {
	if p := defaultPool.Load(); p != nil {
		return p
	}
	p := NewPool(runtime.GOMAXPROCS(0) - 1)
	if defaultPool.CompareAndSwap(nil, p) {
		return p
	}
	p.Close()
	return defaultPool.Load()
}

// SetDefaultWorkers replaces the default pool with one of exactly
// `helpers` helper goroutines and closes the old pool. The CLI calls
// this once at startup with max(0, GOMAXPROCS - suite workers) so suite-
// level and intra-experiment parallelism share one CPU budget. It must
// not be called concurrently with Monte Carlo work on the default pool.
func SetDefaultWorkers(helpers int) {
	if old := defaultPool.Swap(NewPool(helpers)); old != nil {
		old.Close()
	}
}

// Shards resolves a requested shard count for n replications: requested
// if positive, otherwise the pool's execution width, in both cases
// clamped to [1, n].
func Shards(p *Pool, requested, n int) int {
	s := requested
	if s <= 0 {
		s = p.Workers()
	}
	if s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	return s
}

// ForEach runs fn(i) for every i in [0, n) on the pool, one task per
// index. Unlike Replicate it imposes no seeding contract; use it for
// sweeps whose iterations already own independent state. Iterations must
// not share mutable state without synchronization; write results into
// per-index slots and reduce after ForEach returns.
func ForEach(p *Pool, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	tasks := make([]func(), n)
	for i := range tasks {
		tasks[i] = func() { fn(i) }
	}
	p.Do(tasks)
}

// Replicate runs body(r, rng) for every replication r in [0, n),
// partitioned into `shards` contiguous blocks (resolved via Shards). The
// rng handed to body is seeded with stats.Substream(seed, r), so body's
// draws depend only on (seed, r). body runs concurrently across shards:
// it must write only to per-replication storage (e.g. out[r]); the
// caller reduces in index order after Replicate returns, which makes the
// reduction bit-identical for every shard count.
func Replicate(p *Pool, shards, n int, seed int64, body func(r int, rng *rand.Rand)) {
	if n <= 0 {
		return
	}
	shards = Shards(p, shards, n)
	tasks := make([]func(), shards)
	for s := range tasks {
		lo, hi := s*n/shards, (s+1)*n/shards
		tasks[s] = func() {
			st := stats.NewStream()
			for r := lo; r < hi; r++ {
				st.Reseed(stats.Substream(seed, uint64(r)))
				body(r, st.Rand)
			}
		}
	}
	p.Do(tasks)
}

// ReplicateCensored is Replicate for loops that stop at the first capped
// replication, preserving the sequential break-at-first-cap semantics
// under sharding. body reports whether replication r censored. It
// returns the lowest censoring index, or n if none censored.
//
// Short-circuit rule: a replication whose index exceeds the lowest
// censoring index seen so far is skipped. This is deterministic even
// though the scan order is not: the running minimum only decreases, so a
// skipped r always exceeds the final minimum and would be excluded from
// the reduction anyway, while every r below the final minimum is never
// skipped and always executes. The caller must reduce exactly the
// replications r < the returned index. With several shards in flight,
// replications above it may already have run before the cap was seen,
// and how many did depends on scheduling: anything a caller counts must
// come from that reduction, not from body.
func ReplicateCensored(p *Pool, shards, n int, seed int64, body func(r int, rng *rand.Rand) (censored bool)) int {
	var first atomic.Int64
	first.Store(int64(n))
	Replicate(p, shards, n, seed, func(r int, rng *rand.Rand) {
		if int64(r) > first.Load() {
			return
		}
		if body(r, rng) {
			for {
				cur := first.Load()
				if int64(r) >= cur || first.CompareAndSwap(cur, int64(r)) {
					break
				}
			}
		}
	})
	return int(first.Load())
}

// A Propagator forks per-task context — the obs layer uses it to give
// every task its own probes and merge the counts back. It is
// invoked once per Do on the submitting goroutine and returns the
// wrapper applied to each task of that Do (nil meaning no wrapping); the
// wrapper runs on whichever goroutine executes the task and must be safe
// for concurrent use.
type Propagator func() func(task func())

var propagator atomic.Pointer[Propagator]

// SetPropagator installs (or, with nil, removes) the process-wide
// Propagator.
func SetPropagator(f Propagator) {
	if f == nil {
		propagator.Store(nil)
		return
	}
	propagator.Store(&f)
}
