package clock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aspectpar/internal/exec"
)

// TestRealPassthrough pins the zero-config contract: Real is the wall clock.
func TestRealPassthrough(t *testing.T) {
	c := Real()
	before := time.Now()
	now := c.Now()
	if now.Before(before.Add(-time.Second)) || now.After(before.Add(time.Second)) {
		t.Fatalf("Real().Now() = %v, wall clock = %v", now, before)
	}
	tm := c.NewTimer(time.Hour)
	if !tm.Stop() {
		t.Error("stopping a pending real timer reported not-pending")
	}
	if Or(nil) == nil || Or(c) != c {
		t.Error("Or must default nil to Real and pass non-nil through")
	}
}

// TestVirtualAdvanceOrder pins the discrete-event contract: waiters fire in
// (deadline, registration) order, observing the virtual instant they were
// due at, and time never moves on its own.
func TestVirtualAdvanceOrder(t *testing.T) {
	v := NewVirtual(time.Unix(1000, 0))
	defer v.Close()

	d1 := v.After(10 * time.Millisecond)
	d2 := v.After(30 * time.Millisecond)
	d3 := v.After(10 * time.Millisecond) // same deadline as d1: fires in the same step

	if got := v.Waiters(); got != 3 {
		t.Fatalf("Waiters = %d, want 3", got)
	}
	v.Advance(10 * time.Millisecond)
	at10 := time.Unix(1000, 0).Add(10 * time.Millisecond)
	for i, ch := range []<-chan time.Time{d1, d3} {
		select {
		case got := <-ch:
			if !got.Equal(at10) {
				t.Errorf("waiter %d fired at %v, want %v", i, got, at10)
			}
		default:
			t.Fatalf("waiter %d not released by Advance(10ms)", i)
		}
	}
	select {
	case <-d2:
		t.Fatal("30ms waiter released by a 10ms advance")
	default:
	}
	if got := v.Now(); !got.Equal(at10) {
		t.Errorf("Now after Advance(10ms) = %v", got)
	}
	v.Advance(25 * time.Millisecond)
	if got := <-d2; !got.Equal(time.Unix(1000, 0).Add(30 * time.Millisecond)) {
		t.Errorf("late waiter observed %v, want its own deadline", got)
	}
	if got := v.Now(); !got.Equal(time.Unix(1000, 0).Add(35 * time.Millisecond)) {
		t.Errorf("Now after Advance(25ms) = %v, want start+35ms", got)
	}
}

// TestVirtualTimerStop pins that a stopped virtual timer never delivers and
// unparks nothing.
func TestVirtualTimerStop(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	defer v.Close()
	tm := v.NewTimer(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop on a pending virtual timer = false")
	}
	if tm.Stop() {
		t.Fatal("second Stop = true")
	}
	v.Advance(2 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("stopped timer delivered")
	default:
	}
}

// TestVirtualAutoAdvance pins the pump: sleeps complete without anyone
// calling Advance, in bounded wall time, and the clock lands exactly on the
// deadlines (no drift from the settle delay). Every sleeper parks before the
// pump starts: a sleeper parking after the first advance would sleep from the
// advanced time, and its deadline would not be start+i hours.
func TestVirtualAutoAdvance(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	defer v.Close()
	var done atomic.Int32
	var wg sync.WaitGroup
	for i := 1; i <= 5; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v.Sleep(time.Duration(i) * time.Hour) // virtual hours: free
			done.Add(1)
		}(i)
	}
	v.AwaitWaits(5)
	v.AutoAdvance(100 * time.Microsecond)
	wg.Wait()
	if done.Load() != 5 {
		t.Fatalf("done = %d, want 5", done.Load())
	}
	if got := v.Now(); !got.Equal(time.Unix(0, 0).Add(5 * time.Hour)) {
		t.Errorf("Now = %v, want start+5h exactly", got)
	}
}

// TestVirtualCloseReleases pins that Close unparks every sleeper, so a
// harness tearing down cannot strand goroutines.
func TestVirtualCloseReleases(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v.Sleep(time.Hour)
		}()
	}
	v.AwaitWaits(3)
	v.Close()
	wg.Wait() // would hang if Close left a waiter parked
}

// TestExecBridge pins the substrate bridge on the real backend: Sleep and
// timers ride ctx, Stop suppresses delivery.
func TestExecBridge(t *testing.T) {
	c := Exec(exec.Real())
	start := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(start) <= 0 {
		t.Error("exec bridge clock did not advance across Sleep")
	}
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(time.Second):
		t.Fatal("After never fired on the real backend")
	}
	tm := c.NewTimer(time.Minute)
	if !tm.Stop() {
		t.Error("Stop on a pending exec timer = false")
	}
	if tm2 := c.NewTimer(0); tm2.Stop() {
		t.Error("Stop on an already-fired timer = true")
	}
}
