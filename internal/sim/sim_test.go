package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.Spawn("p", func(p *Proc) {
		p.Sleep(5 * time.Second)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5*time.Second {
		t.Errorf("Now after sleep = %v", at)
	}
	if e.Now() != 5*time.Second {
		t.Errorf("engine Now = %v", e.Now())
	}
}

func TestVirtualTimeIsNotWallTime(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) { p.Sleep(1000 * time.Hour) })
	start := time.Now()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Errorf("simulating 1000h took %v of wall time", wall)
	}
	if e.Now() != 1000*time.Hour {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestParallelSleepsOverlap(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) { p.Sleep(time.Second) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != time.Second {
		t.Errorf("ten overlapping 1s sleeps should end at 1s, got %v", e.Now())
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Spawn(name, func(p *Proc) { order = append(order, name) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "abc" {
		t.Errorf("order = %q, want abc (spawn order)", got)
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		mu := e.NewMutex()
		for i := 0; i < 5; i++ {
			i := i
			e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				p.Sleep(time.Duration(i%3) * time.Millisecond)
				mu.Lock(p)
				trace = append(trace, fmt.Sprintf("w%d@%v", i, p.Now()))
				p.Sleep(time.Millisecond)
				mu.Unlock(p)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	first := strings.Join(run(), "|")
	for i := 0; i < 5; i++ {
		if got := strings.Join(run(), "|"); got != first {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i, got, first)
		}
	}
}

func TestSpawnFromWithinProcess(t *testing.T) {
	e := NewEngine()
	var childRan bool
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Second)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(time.Second)
			childRan = true
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Error("child did not run")
	}
	if e.Now() != 2*time.Second {
		t.Errorf("Now = %v, want 2s", e.Now())
	}
}

func TestNegativeSleepPanicsProcess(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) { p.Sleep(-1) })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "negative sleep") {
		t.Errorf("err = %v", err)
	}
}

func TestProcessPanicIsReported(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", func(p *Proc) { panic("kaboom") })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") || !strings.Contains(err.Error(), "bad") {
		t.Errorf("err = %v", err)
	}
}

func TestRunTwiceFails(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil {
		t.Error("second Run should fail")
	}
}

// --- Mutex ---

func TestMutexMutualExclusionAndFIFO(t *testing.T) {
	e := NewEngine()
	mu := e.NewMutex()
	var order []int
	inside := 0
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			mu.Lock(p)
			inside++
			if inside != 1 {
				t.Errorf("mutual exclusion violated: %d inside", inside)
			}
			p.Sleep(time.Millisecond)
			order = append(order, i)
			inside--
			mu.Unlock(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[0 1 2 3]" {
		t.Errorf("order = %v, want FIFO", order)
	}
	if e.Now() != 4*time.Millisecond {
		t.Errorf("critical sections must serialise: Now = %v", e.Now())
	}
}

func TestMutexUnlockByNonOwnerPanics(t *testing.T) {
	e := NewEngine()
	mu := e.NewMutex()
	e.Spawn("p", func(p *Proc) { mu.Unlock(p) })
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), "unlocks mutex") {
		t.Errorf("err = %v", err)
	}
}

// --- Resource ---

func TestResourceLimitsConcurrency(t *testing.T) {
	// 4 contexts, 8 one-second jobs -> exactly 2 seconds.
	e := NewEngine()
	res := e.NewResource(4)
	peak := 0
	for i := 0; i < 8; i++ {
		e.Spawn(fmt.Sprintf("job%d", i), func(p *Proc) {
			res.Use(p, 1, func() {
				if res.InUse() > peak {
					peak = res.InUse()
				}
				p.Sleep(time.Second)
			})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 2*time.Second {
		t.Errorf("makespan = %v, want 2s", e.Now())
	}
	if peak != 4 {
		t.Errorf("peak concurrency = %d, want 4", peak)
	}
	if res.InUse() != 0 {
		t.Errorf("leaked %d units", res.InUse())
	}
	if res.Capacity() != 4 {
		t.Errorf("capacity = %d", res.Capacity())
	}
}

func TestResourceFIFONoOvertaking(t *testing.T) {
	// A large request at the head must not be starved by later small ones.
	e := NewEngine()
	res := e.NewResource(2)
	var order []string
	e.Spawn("hold", func(p *Proc) {
		res.Acquire(p, 2)
		p.Sleep(time.Second)
		res.Release(2)
	})
	e.Spawn("big", func(p *Proc) {
		p.Sleep(time.Millisecond) // arrive second
		res.Acquire(p, 2)
		order = append(order, "big")
		res.Release(2)
	})
	e.Spawn("small", func(p *Proc) {
		p.Sleep(2 * time.Millisecond) // arrive third
		res.Acquire(p, 1)
		order = append(order, "small")
		res.Release(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[big small]" {
		t.Errorf("order = %v: small request overtook the queued big one", order)
	}
}

func TestResourceMisuse(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		res := e.NewResource(2)
		res.Acquire(p, 3) // more than capacity
	})
	if err := e.Run(); err == nil {
		t.Error("over-capacity acquire should fail the run")
	}

	e2 := NewEngine()
	e2.Spawn("p", func(p *Proc) {
		res := e2.NewResource(2)
		res.Release(1) // nothing acquired
	})
	if err := e2.Run(); err == nil {
		t.Error("spurious release should fail the run")
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewResource(0) should panic")
			}
		}()
		NewEngine().NewResource(0)
	}()
}

// Property: for any set of equal jobs and capacity c, makespan equals
// ceil(n/c) * jobTime (perfect packing of identical jobs).
func TestResourceMakespanProperty(t *testing.T) {
	f := func(nJobs, capRaw uint8) bool {
		n := int(nJobs%20) + 1
		c := int(capRaw%6) + 1
		e := NewEngine()
		res := e.NewResource(c)
		for i := 0; i < n; i++ {
			e.Spawn(fmt.Sprintf("j%d", i), func(p *Proc) {
				res.Use(p, 1, func() { p.Sleep(time.Second) })
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		rounds := (n + c - 1) / c
		return e.Now() == time.Duration(rounds)*time.Second
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- WaitGroup ---

func TestWaitGroup(t *testing.T) {
	e := NewEngine()
	wg := e.NewWaitGroup()
	done := 0
	e.Spawn("main", func(p *Proc) {
		wg.Add(3)
		for i := 0; i < 3; i++ {
			i := i
			e.Spawn(fmt.Sprintf("w%d", i), func(q *Proc) {
				q.Sleep(time.Duration(i+1) * time.Second)
				done++
				wg.Done()
			})
		}
		wg.Wait(p)
		if done != 3 {
			t.Errorf("Wait returned with %d done", done)
		}
		if p.Now() != 3*time.Second {
			t.Errorf("Wait returned at %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wg.Count() != 0 {
		t.Errorf("count = %d", wg.Count())
	}
}

func TestWaitGroupZeroWaitReturnsImmediately(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		wg := e.NewWaitGroup()
		wg.Wait(p) // must not block
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		wg := e.NewWaitGroup()
		wg.Done()
	})
	if err := e.Run(); err == nil {
		t.Error("negative counter should fail the run")
	}
}

// --- Chan ---

func TestChanRendezvous(t *testing.T) {
	e := NewEngine()
	ch := e.NewChan(0)
	var got any
	var recvAt time.Duration
	e.Spawn("recv", func(p *Proc) {
		got, _ = ch.Recv(p)
		recvAt = p.Now()
	})
	e.Spawn("send", func(p *Proc) {
		p.Sleep(time.Second)
		ch.Send(p, 42)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 || recvAt != time.Second {
		t.Errorf("got %v at %v", got, recvAt)
	}
}

func TestChanRendezvousSenderBlocksUntilReceiver(t *testing.T) {
	e := NewEngine()
	ch := e.NewChan(0)
	var sendDone time.Duration
	e.Spawn("send", func(p *Proc) {
		ch.Send(p, "x")
		sendDone = p.Now()
	})
	e.Spawn("recv", func(p *Proc) {
		p.Sleep(2 * time.Second)
		ch.Recv(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sendDone != 2*time.Second {
		t.Errorf("sender unblocked at %v, want 2s", sendDone)
	}
}

func TestChanBufferedFIFO(t *testing.T) {
	e := NewEngine()
	ch := e.NewChan(10)
	var got []int
	e.Spawn("send", func(p *Proc) {
		for i := 0; i < 5; i++ {
			ch.Send(p, i)
		}
		ch.Close()
	})
	e.Spawn("recv", func(p *Proc) {
		for {
			v, ok := ch.Recv(p)
			if !ok {
				return
			}
			got = append(got, v.(int))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1 2 3 4]" {
		t.Errorf("got = %v", got)
	}
}

func TestChanBufferFullBlocksSender(t *testing.T) {
	e := NewEngine()
	ch := e.NewChan(1)
	var secondSendAt time.Duration
	e.Spawn("send", func(p *Proc) {
		ch.Send(p, 1) // fills buffer
		ch.Send(p, 2) // blocks until receiver drains
		secondSendAt = p.Now()
	})
	e.Spawn("recv", func(p *Proc) {
		p.Sleep(time.Second)
		ch.Recv(p)
		ch.Recv(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if secondSendAt != time.Second {
		t.Errorf("second send completed at %v", secondSendAt)
	}
}

func TestChanCloseReleasesReceivers(t *testing.T) {
	e := NewEngine()
	ch := e.NewChan(0)
	var ok bool = true
	e.Spawn("recv", func(p *Proc) { _, ok = ch.Recv(p) })
	e.Spawn("closer", func(p *Proc) {
		p.Sleep(time.Second)
		ch.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("Recv on closed channel should report !ok")
	}
}

func TestChanSendOnClosedPanics(t *testing.T) {
	e := NewEngine()
	ch := e.NewChan(1)
	e.Spawn("p", func(p *Proc) {
		ch.Close()
		ch.Send(p, 1)
	})
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), "closed channel") {
		t.Errorf("err = %v", err)
	}
}

func TestChanCloseWakesParkedSenderWithPanic(t *testing.T) {
	e := NewEngine()
	ch := e.NewChan(0)
	e.Spawn("send", func(p *Proc) { ch.Send(p, 1) })
	e.Spawn("closer", func(p *Proc) {
		p.Sleep(time.Second)
		ch.Close()
	})
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), "closed channel") {
		t.Errorf("err = %v", err)
	}
}

func TestChanDoubleClosePanics(t *testing.T) {
	e := NewEngine()
	ch := e.NewChan(0)
	e.Spawn("p", func(p *Proc) {
		ch.Close()
		ch.Close()
	})
	if err := e.Run(); err == nil {
		t.Error("double close should fail the run")
	}
}

func TestChanTryRecv(t *testing.T) {
	e := NewEngine()
	ch := e.NewChan(2)
	e.Spawn("p", func(p *Proc) {
		if _, ok := ch.TryRecv(); ok {
			t.Error("TryRecv on empty channel should fail")
		}
		ch.Send(p, 7)
		v, ok := ch.TryRecv()
		if !ok || v != 7 {
			t.Errorf("TryRecv = %v, %v", v, ok)
		}
		if ch.Len() != 0 {
			t.Errorf("Len = %d", ch.Len())
		}
		ch.Close()
		if !ch.Closed() {
			t.Error("Closed() = false")
		}
		if _, ok := ch.TryRecv(); ok {
			t.Error("TryRecv on closed+drained channel should fail")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: every value sent through a buffered channel arrives exactly once
// and in order, for any (#producers prefixed distinct streams merged) -> with
// one producer, FIFO holds exactly.
func TestChanFIFOProperty(t *testing.T) {
	f := func(nRaw, capRaw uint8) bool {
		n := int(nRaw%50) + 1
		capacity := int(capRaw % 8)
		e := NewEngine()
		ch := e.NewChan(capacity)
		var got []int
		e.Spawn("send", func(p *Proc) {
			for i := 0; i < n; i++ {
				ch.Send(p, i)
			}
			ch.Close()
		})
		e.Spawn("recv", func(p *Proc) {
			for {
				v, ok := ch.Recv(p)
				if !ok {
					return
				}
				got = append(got, v.(int))
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- Deadlock detection ---

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	a := e.NewMutex()
	b := e.NewMutex()
	e.Spawn("p1", func(p *Proc) {
		a.Lock(p)
		p.Sleep(time.Millisecond)
		b.Lock(p)
	})
	e.Spawn("p2", func(p *Proc) {
		b.Lock(p)
		p.Sleep(time.Millisecond)
		a.Lock(p)
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "p1") || !strings.Contains(err.Error(), "p2") {
		t.Errorf("deadlock report should name both processes: %v", err)
	}
}

func TestDaemonBlockedIsNotDeadlock(t *testing.T) {
	e := NewEngine()
	ch := e.NewChan(0)
	e.SpawnDaemon("server", func(p *Proc) {
		for {
			if _, ok := ch.Recv(p); !ok {
				return
			}
		}
	})
	e.Spawn("client", func(p *Proc) {
		ch.Send(p, "req")
		p.Sleep(time.Second)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("daemon parked on recv must not be a deadlock: %v", err)
	}
}

func TestNonDaemonBlockedIsDeadlock(t *testing.T) {
	e := NewEngine()
	ch := e.NewChan(0)
	e.Spawn("stuck", func(p *Proc) { ch.Recv(p) })
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), "stuck") {
		t.Errorf("err = %v", err)
	}
}

// TestRunUnwindsParkedProcesses pins that a run's goroutines end with it:
// whichever way Run returns, every process still parked — daemons waiting
// on a channel, a mutex or a sleep, processes that never started — exits
// and runs its deferred calls before Run returns.
func TestRunUnwindsParkedProcesses(t *testing.T) {
	cases := []struct {
		name    string
		wantErr string
		failure func(e *Engine) // the non-daemon workload
	}{
		{"normal", "", func(e *Engine) {
			e.Spawn("main", func(p *Proc) { p.Sleep(time.Millisecond) })
		}},
		{"deadlock", "deadlock", func(e *Engine) {
			e.Spawn("stuck", func(p *Proc) { e.NewChan(0).Recv(p) })
		}},
		{"panic", "panicked", func(e *Engine) {
			e.Spawn("main", func(p *Proc) {
				e.Spawn("never-started", func(*Proc) { t.Error("an unwound process ran") })
				panic("boom")
			})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := NewEngine()
			ch, mu := e.NewChan(0), e.NewMutex()
			unwound := 0
			e.SpawnDaemon("recv", func(p *Proc) {
				defer func() { unwound++ }()
				ch.Recv(p)
			})
			e.SpawnDaemon("holder", func(p *Proc) {
				mu.Lock(p)
				defer mu.Unlock(p) // hands the mutex on while unwinding
				defer ch.Recv(p)   // a deferred call that parks again
				ch.Recv(p)
			})
			e.SpawnDaemon("mutex", func(p *Proc) {
				defer func() { unwound++ }()
				mu.Lock(p)
			})
			if c.name == "panic" {
				// Only a failed run returns with events still queued.
				e.SpawnDaemon("sleep", func(p *Proc) {
					defer func() { unwound++ }()
					p.Sleep(time.Hour)
				})
			}
			c.failure(e)
			err := e.Run()
			if c.wantErr == "" && err != nil || c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
				t.Fatalf("Run = %v, want error containing %q", err, c.wantErr)
			}
			want := 2
			if c.name == "panic" {
				want = 3
			}
			if unwound != want {
				t.Errorf("%d deferred calls ran, want %d", unwound, want)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines after Run, %d before", n, base)
			}
		})
	}
}

func TestProcAccessors(t *testing.T) {
	e := NewEngine()
	e.Spawn("named", func(p *Proc) {
		if p.Name() != "named" {
			t.Errorf("Name = %q", p.Name())
		}
		if p.Engine() != e {
			t.Error("Engine() mismatch")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
