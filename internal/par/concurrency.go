package par

import (
	"errors"
	"sync"

	"aspectpar/internal/aspect"
	"aspectpar/internal/exec"
)

// Concurrency is the paper's concurrency module (Figure 12): asynchronous
// method invocation plus per-object synchronisation, in one pluggable unit.
// It wraps two kernel aspects because the two pieces of advice need
// different positions in the chain: spawning must happen on the caller's
// side (outside distribution) while mutual exclusion must happen where the
// object lives (inside distribution).
type Concurrency struct {
	async *aspect.Aspect
	sync  *aspect.Aspect
	names sync.Map // "Type.Method" → cached spawn name (hot-path alloc relief)

	mu      sync.Mutex
	wg      exec.WaitGroup
	pending int
	errs    []error
	mutexes map[any]exec.Mutex
	spawned int64

	// executor runs one asynchronous call; the default spawns a fresh
	// activity (the paper's "new Thread"), the ThreadPool optimisation
	// replaces it with a bounded pool.
	executor func(ctx exec.Context, name string, task func(exec.Context))
}

// NewConcurrency builds the module for the calls selected by pc (typically
// call(Class.Method(..)) for the methods that may run in parallel).
// Synchronisation covers the same pointcut: the paper's objects are not
// thread safe, so every asynchronous method is also mutually exclusive per
// object.
func NewConcurrency(pc aspect.Pointcut) *Concurrency {
	c := &Concurrency{mutexes: make(map[any]exec.Mutex)}
	c.executor = func(ctx exec.Context, name string, task func(exec.Context)) {
		ctx.Spawn(name, task)
	}

	c.async = aspect.NewAspect("concurrency-async", precAsync).
		Around(pc, func(jp *aspect.JoinPoint, proceed aspect.ProceedFunc) ([]any, error) {
			if jp.Marked(Remote | NoAsync) {
				return proceed(nil)
			}
			ctx := ctxOf(jp)
			c.track(ctx, 1)
			// The caller receives nil results immediately, so whatever the
			// body returns is discarded: downstream middleware may reply
			// with a bare acknowledgement.
			jp.Mark(Void)
			name := c.spawnName(jp.Type, jp.Method)
			c.executor(ctx, name, func(child exec.Context) {
				defer c.untrack()
				// The remainder of this chain runs inside the new
				// activity; rebind the joinpoint context so inner advice
				// charges and blocks the right process.
				jp.Ctx = child
				if _, err := proceed(nil); err != nil {
					c.fail(err)
				}
			})
			return nil, nil // asynchronous void call, as in the paper
		})

	c.sync = aspect.NewAspect("concurrency-sync", precSync).
		Around(pc, func(jp *aspect.JoinPoint, proceed aspect.ProceedFunc) ([]any, error) {
			if jp.Target == nil {
				return proceed(nil)
			}
			ctx := ctxOf(jp)
			mu := c.mutexFor(ctx, jp.Target)
			mu.Lock(ctx)
			defer mu.Unlock(ctx)
			return proceed(nil)
		})
	return c
}

// spawnName returns the cached activity name for a (type, method) pair: the
// async advice runs once per split piece, so formatting the name on every
// call is measurable allocation churn on the dispatch hot path.
func (c *Concurrency) spawnName(typ, method string) string {
	key := typ + "." + method
	if v, ok := c.names.Load(key); ok {
		return v.(string)
	}
	name := "async:" + key
	c.names.Store(key, name)
	return name
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

// SetExecutor replaces the activity launcher (used by the ThreadPool
// optimisation). Passing nil restores per-call spawning.
func (c *Concurrency) SetExecutor(e func(ctx exec.Context, name string, task func(exec.Context))) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e == nil {
		e = func(ctx exec.Context, name string, task func(exec.Context)) { ctx.Spawn(name, task) }
	}
	c.executor = e
}

// Spawned reports how many asynchronous calls were launched (diagnostics).
func (c *Concurrency) Spawned() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spawned
}

func (c *Concurrency) track(ctx exec.Context, n int) {
	c.mu.Lock()
	if c.wg == nil {
		c.wg = ctx.NewWaitGroup()
	}
	c.wg.Add(n)
	c.pending += n
	c.spawned += int64(n)
	c.mu.Unlock()
}

func (c *Concurrency) untrack() {
	c.mu.Lock()
	c.pending--
	wg := c.wg
	c.mu.Unlock()
	wg.Done()
}

func (c *Concurrency) fail(err error) {
	c.mu.Lock()
	c.errs = append(c.errs, err)
	c.mu.Unlock()
}

func (c *Concurrency) mutexFor(ctx exec.Context, target any) exec.Mutex {
	c.mu.Lock()
	defer c.mu.Unlock()
	mu, ok := c.mutexes[target]
	if !ok {
		mu = ctx.NewMutex()
		c.mutexes[target] = mu
	}
	return mu
}

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
func (c *Concurrency) Quiet() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pending == 0
}
