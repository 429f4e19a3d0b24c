package par

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aspectpar/internal/aspect"
	"aspectpar/internal/cluster"
	"aspectpar/internal/exec"
	"aspectpar/internal/sim"
)

// These tests pin what an asynchronous call is since it stopped costing an
// activity: an entry in its local object's queue, run by the object's one
// drainer in submission order; an activity of its own only for a target the
// stack's Distribution has placed.

// probe is a core object with no lock of its own, so only the concurrency
// module keeps its calls apart: Step notes the call, Hold additionally waits
// for the gate, Fail returns an error, Nest issues an asynchronous Step on the
// same object from inside the call.
type probe struct {
	inside  atomic.Int32
	overlap atomic.Bool
	order   []int32 // appended under the module's per-object exclusion only
	gate    chan struct{}
}

func (p *probe) enter(v int32) {
	if p.inside.Add(1) != 1 {
		p.overlap.Store(true)
	}
	p.order = append(p.order, v)
}

func defineProbe(dom *Domain) *Class {
	var class *Class
	class = dom.Define("Probe",
		func([]any) (any, error) { return &probe{gate: make(chan struct{})}, nil },
		map[string]MethodBody{
			"Step": func(target any, args []any) ([]any, error) {
				p := target.(*probe)
				p.enter(args[0].(int32))
				runtime.Gosched() // widen the window an overlapping call would land in
				p.inside.Add(-1)
				return nil, nil
			},
			"Hold": func(target any, args []any) ([]any, error) {
				p := target.(*probe)
				p.enter(args[0].(int32))
				<-p.gate
				p.inside.Add(-1)
				return nil, nil
			},
			"Fail": func(_ any, args []any) ([]any, error) {
				return nil, fmt.Errorf("failed call %d", args[0].(int32))
			},
			"Nest": func(target any, args []any) ([]any, error) {
				p := target.(*probe)
				v := args[0].(int32)
				p.enter(v)
				if _, err := class.Call(exec.Real(), target, "Step", v+1); err != nil {
					return nil, err
				}
				p.order = append(p.order, -v) // still inside the outer call
				p.inside.Add(-1)
				return nil, nil
			},
		})
	return class
}

// probeStack wires Concurrency over every Probe method and creates n objects.
func probeStack(t *testing.T, n int) (*Class, *Concurrency, *Stack, []*probe) {
	t.Helper()
	dom := NewDomain()
	class := defineProbe(dom)
	conc := NewConcurrency(aspect.Call("Probe", "*"))
	stack := NewStack(dom, conc)
	objs := make([]*probe, n)
	for i := range objs {
		obj, err := class.New(exec.Real())
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = obj.(*probe)
	}
	return class, conc, stack, objs
}

func wantOrder(t *testing.T, got []int32, want ...int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("ran %d calls, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d ran as %d, want %d (order from there: %v)", i, got[i], want[i], got[i:min(i+8, len(got))])
		}
	}
}

func TestConcurrencyLocalCallsRunInSubmissionOrder(t *testing.T) {
	class, conc, stack, objs := probeStack(t, 2)
	ctx := exec.Real()
	const n = 500
	want := make([]int32, n)
	for i := int32(0); i < n; i++ {
		want[i] = i
		for _, o := range objs {
			if _, err := class.Call(ctx, o, "Step", i); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := stack.Join(ctx); err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		wantOrder(t, o.order, want...)
		if o.overlap.Load() {
			t.Error("two calls on one object overlapped")
		}
	}
	if conc.Spawned() != 2*n || !conc.Quiet() {
		t.Errorf("spawned = %d (want %d), quiet = %v", conc.Spawned(), 2*n, conc.Quiet())
	}
}

func TestConcurrencyJoinWaitsForQueuedCallsAndReturnsTheirErrors(t *testing.T) {
	class, conc, stack, objs := probeStack(t, 1)
	ctx := exec.Real()
	o := objs[0]
	// The drainer parks inside Hold, so the two Fails and the Step are still
	// queued behind it when Join starts.
	for _, c := range []struct {
		method string
		v      int32
	}{{"Hold", 0}, {"Fail", 1}, {"Step", 2}, {"Fail", 3}} {
		if _, err := class.Call(ctx, o, c.method, c.v); err != nil {
			t.Fatalf("%s: an asynchronous call reports to Join, got %v", c.method, err)
		}
	}
	joined := make(chan error, 1)
	go func() { joined <- stack.Join(ctx) }()
	select {
	case err := <-joined:
		t.Fatalf("Join returned (%v) with three calls queued behind a running one", err)
	default:
	}
	if conc.Quiet() {
		t.Error("Quiet() with calls queued")
	}
	close(o.gate)
	err := <-joined
	if err == nil || !strings.Contains(err.Error(), "failed call 1") || !strings.Contains(err.Error(), "failed call 3") {
		t.Errorf("Join error = %v, want both queued failures", err)
	}
	wantOrder(t, o.order, 0, 2)
	if !conc.Quiet() {
		t.Error("Quiet() after Join should be true")
	}
}

func TestConcurrencySyncAndQueuedAsyncCallsNeverOverlap(t *testing.T) {
	class, _, stack, objs := probeStack(t, 1)
	ctx := exec.Real()
	o := objs[0]
	const n = 300
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int32(0); i < n; i++ {
			// NoAsync: the caller runs the call itself, under the object's lock.
			if _, err := class.CallWith(exec.Real(), NoAsync, o, "Step", -1-i); err != nil {
				t.Error(err)
			}
		}
	}()
	for i := int32(0); i < n; i++ {
		if _, err := class.Call(ctx, o, "Step", i); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := stack.Join(ctx); err != nil {
		t.Fatal(err)
	}
	if o.overlap.Load() {
		t.Error("a synchronous call overlapped a queued asynchronous one")
	}
	if len(o.order) != 2*n {
		t.Errorf("%d calls ran, want %d", len(o.order), 2*n)
	}
	next := int32(0) // the asynchronous calls keep their order among the synchronous ones
	for _, v := range o.order {
		if v >= 0 {
			if v != next {
				t.Fatalf("asynchronous call %d ran where %d was due", v, next)
			}
			next++
		}
	}
}

func TestConcurrencyAsyncCallFromInsideACallRunsAfterIt(t *testing.T) {
	class, _, stack, objs := probeStack(t, 1)
	ctx := exec.Real()
	o := objs[0]
	if _, err := class.Call(ctx, o, "Nest", int32(7)); err != nil {
		t.Fatal(err)
	}
	if err := stack.Join(ctx); err != nil { // loops until the nested call is done too
		t.Fatal(err)
	}
	wantOrder(t, o.order, 7, -7, 8)
	if o.overlap.Load() {
		t.Error("the nested call ran inside its parent")
	}
}

// TestConcurrencyPlacedCallsKeepAnActivityEach is the placed-target rule under
// virtual time: N asynchronous calls to one object behind NewSimRMI overlap
// their round trips exactly as N hand-spawned activities do — what the module
// did for every call before local objects got a queue.
func TestConcurrencyPlacedCallsKeepAnActivityEach(t *testing.T) {
	const n = 8
	run := func(async bool) time.Duration {
		dom, class := defineBox(t)
		cl := cluster.New(sim.NewEngine(), cluster.PaperTestbed())
		conc := NewConcurrency(aspect.Call("Box", "Work"))
		dist := NewDistribution(dom, aspect.New("Box"), aspect.Call("Box", "*"), NewSimRMI(cl), SingleNode(1))
		meter := NewMetering(aspect.Call("Box", "*"), 1e6, 0)
		stack := NewStack(dom, conc, dist, meter)
		err := cl.Run(func(ctx exec.Context) {
			obj, err := class.New(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			wg := ctx.NewWaitGroup()
			for i := int32(0); i < n; i++ {
				if async {
					if _, err := class.Call(ctx, obj, "Work", payload(i)); err != nil {
						t.Error(err)
					}
					continue
				}
				wg.Add(1)
				ctx.Spawn("by-hand", func(child exec.Context) {
					defer wg.Done()
					if _, err := class.CallWith(child, NoAsync|Void, obj, "Work", payload(i)); err != nil {
						t.Error(err)
					}
				})
			}
			wg.Wait(ctx)
			if err := stack.Join(ctx); err != nil {
				t.Error(err)
			}
			if async && conc.Spawned() != n {
				t.Errorf("spawned = %d, want %d", conc.Spawned(), n)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl.Elapsed()
	}
	woven, byHand := run(true), run(false)
	if woven != byHand {
		t.Errorf("%d asynchronous calls on a placed object took %v, %d hand-spawned activities %v: the round trips no longer overlap",
			n, woven, n, byHand)
	}
	// One at a time they would pay n round trips on top of the n ms of work.
	if serial := n * (byHand - n*time.Millisecond); woven >= serial {
		t.Errorf("elapsed %v is no better than %d serial round trips (%v)", woven, n, serial)
	}
}

// countingCtx is the real backend with the activities started through it
// counted: live is how many have not returned yet, peak the most at once.
// Activities spawned from a counted activity are counted too.
type countingCtx struct {
	exec.Context
	live, peak *atomic.Int32
}

func (c countingCtx) Spawn(name string, fn func(exec.Context)) {
	n := c.live.Add(1)
	for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
	}
	c.Context.Spawn(name, func(child exec.Context) {
		defer c.live.Add(-1)
		fn(countingCtx{child, c.live, c.peak})
	})
}

// TestAsyncCallsDoNotPileUpGoroutines is the regression test for the 5,073
// goroutines one woven-local render used to hold: 8,192 asynchronous calls on
// two local objects are two drainers, whatever the backlog. It counts the
// activities the calls started, not every goroutine in the process, so other
// tests' goroutines winding down cannot move it.
func TestAsyncCallsDoNotPileUpGoroutines(t *testing.T) {
	class, _, stack, objs := probeStack(t, 2)
	var live, peak atomic.Int32
	ctx := countingCtx{exec.Real(), &live, &peak}
	for i := int32(0); i < 8192/2; i++ {
		for _, o := range objs {
			if _, err := class.Call(ctx, o, "Step", i); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := stack.Join(ctx); err != nil {
		t.Fatal(err)
	}
	// A drainer that found its queue empty may still be exiting while its
	// successor starts, hence the slack.
	t.Logf("at most %d activities alive at once", peak.Load())
	if peak, limit := int(peak.Load()), len(objs)+8; peak > limit {
		t.Errorf("8,192 calls on %d objects had %d activities alive at once, want at most %d", len(objs), peak, limit)
	}
}

// TestAsyncLocalCallAllocs pins what one queued asynchronous call allocates:
// the joinpoint, the body's binding to its target and the proceed
// continuations of the two pieces of advice — no activity, no closure, no name.
func TestAsyncLocalCallAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("allocation counts are only stable uninstrumented")
	}
	dom := NewDomain()
	class := defineNop(dom)
	stack := NewStack(dom, NewConcurrency(aspect.Call("Nop", "m")))
	ctx := exec.Real()
	obj, err := class.New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const burst = 256
	avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < burst; i++ {
			_, _ = class.Call(ctx, obj, "m")
		}
		if err := stack.Join(ctx); err != nil {
			t.Error(err)
		}
	}) / burst
	t.Logf("%.2f allocations per queued asynchronous call", avg)
	if avg > 5 {
		t.Errorf("a queued asynchronous call allocates %.2f objects, budget 5", avg)
	}
}
