package par

import (
	"errors"
	"sync"
	"sync/atomic"

	"aspectpar/internal/aspect"
	"aspectpar/internal/exec"
)

// Concurrency is the paper's concurrency module (Figure 12): asynchronous
// method invocation plus per-object synchronisation, in one pluggable unit.
// It wraps two kernel aspects because the two pieces of advice need
// different positions in the chain: detaching must happen on the caller's
// side (outside distribution) while mutual exclusion must happen where the
// object lives (inside distribution).
//
// An asynchronous call on a local object is an entry in that object's queue:
// the object's calls cannot overlap anyway, so one drainer activity per busy
// object runs them in submission order (FIFO per object is guaranteed) and
// exits when the queue is empty. Only a call on a target the plugged
// Distribution has placed, or a call with no target, still costs an activity
// of its own (the paper's "new Thread"): its continuation blocks on a round
// trip, and overlapping those is the point.
type Concurrency struct {
	async *aspect.Aspect
	sync  *aspect.Aspect

	pending atomic.Int64
	spawned atomic.Int64

	mu      sync.Mutex
	wg      exec.WaitGroup
	errs    []error
	objects map[any]*object
	// placed reports the targets whose calls travel through a middleware:
	// none, until NewStack sets it from the stack's Distribution. It is
	// called with mu held.
	placed func(obj any) (exec.NodeID, bool)
}

// object is what the module keeps per target, under the module lock.
type object struct {
	excl    exec.Mutex // held around every call on the object (concurrency-sync)
	queue   []queued   // asynchronous calls not yet taken by the drainer
	running bool       // a drainer is launched and has not yet seen the queue empty
}

// queued is the rest of one asynchronous call's advice chain.
type queued struct {
	jp      *aspect.JoinPoint
	proceed aspect.ProceedFunc
}

// NewConcurrency builds the module for the calls selected by pc (typically
// call(Class.Method(..)) for the methods that may run in parallel).
// Synchronisation covers the same pointcut: the paper's objects are not
// thread safe, so every asynchronous method is also mutually exclusive per
// object.
func NewConcurrency(pc aspect.Pointcut) *Concurrency {
	c := &Concurrency{objects: make(map[any]*object)}
	c.placed = func(any) (exec.NodeID, bool) { return 0, false }

	c.async = aspect.NewAspect("concurrency-async", precAsync).
		Around(pc, func(jp *aspect.JoinPoint, proceed aspect.ProceedFunc) ([]any, error) {
			if jp.Marked(Remote | NoAsync) {
				return proceed(nil)
			}
			ctx := ctxOf(jp)
			// The caller receives nil results immediately, so whatever the
			// body returns is discarded: downstream middleware may reply
			// with a bare acknowledgement.
			jp.Mark(Void)
			c.pending.Add(1)
			c.spawned.Add(1)
			c.mu.Lock()
			if c.wg == nil {
				c.wg = ctx.NewWaitGroup()
			}
			c.wg.Add(1)
			var o *object // stays nil for a call that needs an activity of its own
			if _, remote := c.placed(jp.Target); !remote && jp.Target != nil {
				o = c.object(ctx, jp.Target)
				o.queue = append(o.queue, queued{jp, proceed})
				if o.running {
					c.mu.Unlock()
					return nil, nil // asynchronous void call, as in the paper
				}
				o.running = true
			}
			c.mu.Unlock()
			name := "async:" + jp.Type + "." + jp.Method
			if o != nil {
				ctx.Spawn(name, func(child exec.Context) { c.drain(child, o) })
			} else {
				ctx.Spawn(name, func(child exec.Context) { c.run(child, queued{jp, proceed}) })
			}
			return nil, nil
		})

	c.sync = aspect.NewAspect("concurrency-sync", precSync).
		Around(pc, func(jp *aspect.JoinPoint, proceed aspect.ProceedFunc) ([]any, error) {
			if jp.Target == nil {
				return proceed(nil)
			}
			ctx := ctxOf(jp)
			c.mu.Lock()
			excl := c.object(ctx, jp.Target).excl
			c.mu.Unlock()
			excl.Lock(ctx)
			defer excl.Unlock(ctx)
			return proceed(nil)
		})
	return c
}

// object returns the target's record; c.mu is held.
func (c *Concurrency) object(ctx exec.Context, target any) *object {
	o := c.objects[target]
	if o == nil {
		o = &object{excl: ctx.NewMutex()}
		c.objects[target] = o
	}
	return o
}

// drain is a busy object's one activity: it runs the queued calls in arrival
// order, a batch at a time, and exits when it finds the queue empty.
func (c *Concurrency) drain(ctx exec.Context, o *object) {
	var batch []queued
	for {
		c.mu.Lock()
		batch, o.queue = o.queue, batch[:0]
		o.running = len(batch) > 0
		c.mu.Unlock()
		if len(batch) == 0 {
			return
		}
		for i, call := range batch {
			batch[i] = queued{}
			c.run(ctx, call)
		}
	}
}

// run executes the remainder of an asynchronous call's chain inside the
// activity ctx; the joinpoint context is rebound so inner advice charges and
// blocks the right process.
func (c *Concurrency) run(ctx exec.Context, call queued) {
	call.jp.Ctx = ctx
	if _, err := call.proceed(nil); err != nil {
		c.mu.Lock()
		c.errs = append(c.errs, err)
		c.mu.Unlock()
	}
	c.pending.Add(-1)
	c.wg.Done()
}

// ModuleName implements Module.
func (c *Concurrency) ModuleName() string { return "concurrency" }

// Plug implements Module.
func (c *Concurrency) Plug(w *aspect.Weaver) { w.Plug(c.async, c.sync) }

// Unplug implements Module.
func (c *Concurrency) Unplug(w *aspect.Weaver) {
	w.Unplug(c.async)
	w.Unplug(c.sync)
}

// Spawned reports how many asynchronous calls were launched (diagnostics).
func (c *Concurrency) Spawned() int64 { return c.spawned.Load() }

// Join implements Joiner: it waits for all launched asynchronous calls and
// returns their accumulated errors.
func (c *Concurrency) Join(ctx exec.Context) error {
	c.mu.Lock()
	wg := c.wg
	c.mu.Unlock()
	if wg != nil {
		wg.Wait(ctx)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return errors.Join(c.errs...)
}

// Quiet implements Joiner.
func (c *Concurrency) Quiet() bool { return c.pending.Load() == 0 }
