package mc

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNewPoolClampsNegativeHelpers(t *testing.T) {
	p := NewPool(-3)
	defer p.Close()
	if got := p.Workers(); got != 1 {
		t.Fatalf("Workers() = %d for NewPool(-3), want 1", got)
	}
	var nilPool *Pool
	if got := nilPool.Workers(); got != 1 {
		t.Fatalf("nil pool Workers() = %d, want 1", got)
	}
	nilPool.Close() // must not panic
}

func TestDefaultPool(t *testing.T) {
	old := defaultPool.Swap(nil)
	defer func() {
		if p := defaultPool.Swap(old); p != nil && p != old {
			p.Close()
		}
	}()
	p := Default()
	if p == nil || p.Workers() < 1 {
		t.Fatalf("Default() = %v", p)
	}
	if again := Default(); again != p {
		t.Fatalf("second Default() returned a different pool")
	}
	// Race the first-use path from several goroutines: exactly one CAS
	// wins and everyone observes the same pool.
	defaultPool.Store(nil)
	var wg sync.WaitGroup
	pools := make([]*Pool, 8)
	for i := range pools {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pools[i] = Default()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(pools); i++ {
		if pools[i] != pools[0] {
			t.Fatalf("concurrent Default() returned distinct pools")
		}
	}
}

func TestCloseTwiceIsNoop(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // must not panic
}

func TestDoBusyHelperRunsInline(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	// Occupy the single helper so Do's non-blocking hand-off fails and
	// the calling goroutine drains every task itself.
	p.jobs <- func() { close(started); <-block }
	<-started
	var ran atomic.Int64
	tasks := make([]func(), 16)
	for i := range tasks {
		tasks[i] = func() { ran.Add(1) }
	}
	p.Do(tasks)
	close(block)
	if got := ran.Load(); got != int64(len(tasks)) {
		t.Fatalf("ran %d tasks, want %d", got, len(tasks))
	}
}

// TestDoRepanicsHelperPanicOnCaller: a task that panics on a helper
// goroutine must not kill the process. Do recovers it there and re-panics
// on its own caller, carrying the task's panic value and the helper's
// stack, where a crash shield such as the suite runner's can catch it.
func TestDoRepanicsHelperPanicOnCaller(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	const helperFrame = "mc.NewPool.func"
	onHelper := func() bool {
		buf := make([]byte, 8<<10)
		return strings.Contains(string(buf[:runtime.Stack(buf, false)]), helperFrame)
	}
	for attempt := 0; attempt < 1000; attempt++ {
		var r any
		func() {
			defer func() { r = recover() }()
			ForEach(p, 8, func(int) {
				runtime.Gosched() // on one CPU, let a helper claim a task too
				if onHelper() {
					panic("task bug")
				}
			})
		}()
		if r == nil {
			runtime.Gosched() // no helper was idle at hand-off; let them park
			continue
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "task bug") || !strings.Contains(msg, helperFrame) {
			t.Fatalf("Do re-panicked with %q, want the task's value and the helper's stack", msg)
		}
		return
	}
	t.Fatal("no task ran on a helper in 1000 attempts")
}

// TestDoStopsHandingOutTasksAfterPanic: once a task panics, Do starts no
// further task before re-panicking, and a panic re-raised by a nested Do
// keeps the original task's value rather than being wrapped twice.
func TestDoStopsHandingOutTasksAfterPanic(t *testing.T) {
	ran := 0
	var r any
	func() {
		defer func() { r = recover() }()
		inner := func() { NewPool(0).Do([]func(){func() { panic("first") }}) }
		NewPool(0).Do([]func(){inner, func() { ran++ }})
	}()
	if tp, ok := r.(*taskPanic); !ok || tp.value != "first" {
		t.Fatalf("Do re-panicked with %#v, want the inner task's panic", r)
	}
	if ran != 0 {
		t.Fatalf("%d tasks ran after the panic", ran)
	}
}

func TestEmptyWorkEarlyReturns(t *testing.T) {
	called := false
	ForEach(nil, 0, func(int) { called = true })
	Replicate(nil, 0, 1, func(int, *rand.Rand) { called = true })
	ReplicateCensored(nil, -1, 1, func(int, *rand.Rand) bool { called = true; return false })
	if called {
		t.Fatal("zero-size work invoked a body")
	}
	var nilPool *Pool
	nilPool.Do(nil) // n == 0 early return on a nil pool
}
