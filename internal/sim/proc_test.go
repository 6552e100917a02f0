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

func TestProcSuspendResumePayload(t *testing.T) {
	k := New(1)
	var got any
	var waiter *Proc
	waiter = k.Go(func(p *Proc) {
		payload, resumed := p.Suspend()
		if !resumed {
			t.Error("suspend reported interrupted")
		}
		got = payload
	})
	k.Go(func(p *Proc) {
		p.Wait(2)
		waiter.Resume("hello")
	})
	k.Run()
	if got != "hello" {
		t.Fatalf("payload = %v, want hello", got)
	}
}

func TestProcInterruptCancelsWait(t *testing.T) {
	k := New(1)
	var completed bool
	var at Time
	var sleeper *Proc
	sleeper = k.Go(func(p *Proc) {
		completed = p.Wait(100)
		at = p.Now()
	})
	k.Go(func(p *Proc) {
		p.Wait(1)
		sleeper.Interrupt()
	})
	k.Run()
	if completed {
		t.Fatal("interrupted wait reported completion")
	}
	if at != 1 {
		t.Fatalf("woke at %v, want 1", at)
	}
}

func TestProcInterruptFinishedIsNoop(t *testing.T) {
	k := New(1)
	p := k.Go(func(p *Proc) {})
	k.Run()
	p.Interrupt() // must not panic or deadlock
	k.Run()
}

func TestProcDoubleResumePanics(t *testing.T) {
	k := New(1)
	var target *Proc
	target = k.Go(func(p *Proc) { p.Suspend() })
	k.Go(func(p *Proc) {
		p.Wait(1)
		target.Resume(nil)
		defer func() {
			if recover() == nil {
				t.Error("second Resume did not panic")
			}
		}()
		target.Resume(nil)
	})
	k.Run()
}

// TestProcResumeDuringWaitPanics: Resume wakes only a proc parked in
// Suspend. Resuming a proc that is in Wait panics and leaves the wait
// running to its full length, where it once cut the wait short and
// reported it completed.
func TestProcResumeDuringWaitPanics(t *testing.T) {
	k := New(1)
	var completed bool
	var woke Time
	sleeper := k.Go(func(p *Proc) {
		completed = p.Wait(10)
		woke = p.Now()
	})
	var panicked bool
	k.Go(func(p *Proc) {
		p.Wait(1)
		defer func() { panicked = recover() != nil }()
		sleeper.Resume("early")
	})
	k.Run()
	if !panicked {
		t.Fatal("Resume of a proc in Wait did not panic")
	}
	if !completed || woke != 10 {
		t.Fatalf("Wait returned %v at %v, want true at 10", completed, woke)
	}
}

// TestProcSuspendAfterWaitNotWokenByStaleTimer: the proc's next Suspend
// after a Wait is woken by the next Resume and nothing else. A Resume
// that cut a Wait short once left the wait's timer scheduled, and that
// stale timer woke the following Suspend with a nil payload.
func TestProcSuspendAfterWaitNotWokenByStaleTimer(t *testing.T) {
	k := New(1)
	var got any
	var at Time
	sleeper := k.Go(func(p *Proc) {
		p.Wait(10)
		got, _ = p.Suspend()
		at = p.Now()
	})
	k.Go(func(p *Proc) {
		p.Wait(1)
		func() {
			defer func() { _ = recover() }()
			sleeper.Resume("early")
		}()
		p.Wait(19)
		sleeper.Resume("late")
	})
	k.Run()
	if got != "late" || at != 20 {
		t.Fatalf("Suspend returned %v at %v, want late at 20", got, at)
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
		{"resume finished", func() { done.Resume(nil) }},
		{"resume unstarted", func() { k.Go(func(p *Proc) {}).Resume(nil) }},
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
		p.Kernel().Go(func(c *Proc) {
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
