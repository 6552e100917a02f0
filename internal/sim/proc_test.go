package sim

import (
	"testing"
)

func TestProcWaitAdvancesTime(t *testing.T) {
	k := New(1)
	var marks []Time
	k.Go(func(p *Proc) {
		marks = append(marks, p.Now())
		p.Wait(5)
		marks = append(marks, p.Now())
		p.Wait(3)
		marks = append(marks, p.Now())
	})
	k.Run()
	want := []Time{0, 5, 8}
	if len(marks) != len(want) {
		t.Fatalf("marks = %v, want %v", marks, want)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []int {
		k := New(1)
		var order []int
		for i := 0; i < 4; i++ {
			i := i
			k.Go(func(p *Proc) {
				for step := 0; step < 3; step++ {
					p.Wait(Time(i+1) * 0.5)
					order = append(order, i)
				}
			})
		}
		k.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != 12 {
		t.Fatalf("got %d steps, want 12", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic interleave: %v vs %v", a, b)
		}
	}
	// Proc 0 waits 0.5s per step, so it must log the first step.
	if a[0] != 0 {
		t.Fatalf("first step by proc %d, want 0", a[0])
	}
}

// TestProcSuspendResumeWakeTime: a suspended proc wakes at the virtual
// time its Resume was called.
func TestProcSuspendResumeWakeTime(t *testing.T) {
	k := New(1)
	var at Time
	var waiter *Proc
	waiter = k.Go(func(p *Proc) {
		p.Suspend()
		at = p.Now()
	})
	k.Go(func(p *Proc) {
		p.Wait(2)
		waiter.Resume()
	})
	k.Run()
	if at != 2 {
		t.Fatalf("woke at %v, want 2", at)
	}
}

func TestProcDoubleResumePanics(t *testing.T) {
	k := New(1)
	var target *Proc
	target = k.Go(func(p *Proc) { p.Suspend() })
	k.Go(func(p *Proc) {
		p.Wait(1)
		target.Resume()
		defer func() {
			if recover() == nil {
				t.Error("second Resume did not panic")
			}
		}()
		target.Resume()
	})
	k.Run()
}

// TestProcResumeDuringWaitPanics: Resume wakes only a proc parked in
// Suspend. Resuming a proc that is in Wait panics and leaves the wait
// running to its full length, where it once cut the wait short.
func TestProcResumeDuringWaitPanics(t *testing.T) {
	k := New(1)
	var woke Time
	sleeper := k.Go(func(p *Proc) {
		p.Wait(10)
		woke = p.Now()
	})
	var panicked bool
	k.Go(func(p *Proc) {
		p.Wait(1)
		defer func() { panicked = recover() != nil }()
		sleeper.Resume()
	})
	k.Run()
	if !panicked {
		t.Fatal("Resume of a proc in Wait did not panic")
	}
	if woke != 10 {
		t.Fatalf("Wait returned at %v, want 10", woke)
	}
}

// TestProcSuspendAfterWaitNotWokenByStaleTimer: the proc's next Suspend
// after a Wait is woken by the next Resume and nothing else. A Resume
// that cut a Wait short once left the wait's timer scheduled, and that
// stale timer woke the following Suspend early.
func TestProcSuspendAfterWaitNotWokenByStaleTimer(t *testing.T) {
	k := New(1)
	var waited, at Time
	sleeper := k.Go(func(p *Proc) {
		p.Wait(10)
		waited = p.Now()
		p.Suspend()
		at = p.Now()
	})
	k.Go(func(p *Proc) {
		p.Wait(1)
		func() {
			defer func() { _ = recover() }()
			sleeper.Resume() // panics: the sleeper is in Wait
		}()
		p.Wait(19)
		sleeper.Resume()
	})
	k.Run()
	if waited != 10 || at != 20 {
		t.Fatalf("Wait ended at %v and Suspend at %v, want 10 and 20", waited, at)
	}
}

// TestMisusePanics pins the remaining protocol-bug panics: a nil event
// function, a negative Wait, a Resume of a finished proc and a Resume of
// a proc that has not started.
func TestMisusePanics(t *testing.T) {
	k := New(1)
	done := k.Go(func(p *Proc) {})
	k.Run()
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"nil event", func() { k.At(k.Now(), nil) }},
		{"resume finished", func() { done.Resume() }},
		{"resume unstarted", func() { k.Go(func(p *Proc) {}).Resume() }},
		{"negative wait", func() { k.Go(func(p *Proc) { p.Wait(-1) }); k.Run() }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

func TestProcSpawnsProc(t *testing.T) {
	k := New(1)
	var childTime Time
	k.Go(func(p *Proc) {
		p.Wait(4)
		k.Go(func(c *Proc) {
			c.Wait(1)
			childTime = c.Now()
		})
	})
	k.Run()
	if childTime != 5 {
		t.Fatalf("child finished at %v, want 5", childTime)
	}
}

func TestManyProcs(t *testing.T) {
	k := New(1)
	const n = 1000
	finished := 0
	for i := 0; i < n; i++ {
		i := i
		k.Go(func(p *Proc) {
			p.Wait(Time(i) * Microsecond)
			finished++
		})
	}
	k.Run()
	if finished != n {
		t.Fatalf("finished %d of %d procs", finished, n)
	}
}
