package par

import (
	"errors"
	"fmt"
	"sync"

	"aspectpar/internal/aspect"
	"aspectpar/internal/exec"
)

// HBCall invokes a woven method on one heartbeat worker, inline (it travels
// through the distribution middleware when plugged, but does not detach an
// activity). The Exchange callback uses it to move boundary data between
// workers.
type HBCall func(ctx exec.Context, worker any, method string, args ...any) ([]any, error)

// HeartbeatConfig parameterises the heartbeat protocol: the third of the
// paper's "three most common categories: pipeline, farm with separable
// dependencies and heartbeat". A single core object is duplicated into
// domain partitions; every call of the step method is broadcast to all
// partitions, a barrier waits for the step to complete everywhere, and an
// application-supplied exchange moves boundary data between neighbours
// before the call returns.
type HeartbeatConfig struct {
	// Class is the core class whose instances form the partitions.
	Class *Class
	// Workers is the number of domain partitions.
	Workers int
	// WorkerArgs derives partition i's constructor arguments from the
	// original ones (typically: which slab of the domain to own).
	WorkerArgs func(orig []any, worker int) []any
	// StepMethod is the iteration method broadcast to all partitions.
	StepMethod string
	// Exchange moves boundary data between partitions after each step;
	// nil skips exchange (embarrassingly parallel iteration).
	Exchange func(ctx exec.Context, workers []any, call HBCall) error
}

// Heartbeat is the heartbeat partition module.
type Heartbeat struct {
	cfg HeartbeatConfig
	asp *aspect.Aspect
	set managedSet

	mu      sync.Mutex
	wg      exec.WaitGroup
	pending int
}

// NewHeartbeat builds the module.
func NewHeartbeat(cfg HeartbeatConfig) *Heartbeat {
	if cfg.Class == nil || cfg.StepMethod == "" || cfg.Workers <= 0 {
		panic(fmt.Sprintf("par: invalid heartbeat config %+v", cfg))
	}
	h := &Heartbeat{cfg: cfg}
	newPC := aspect.New(cfg.Class.Name())
	stepPC := aspect.Call(cfg.Class.Name(), cfg.StepMethod)

	h.asp = aspect.NewAspect("heartbeat", precPartition)

	// Object duplication into domain partitions.
	h.asp.Around(newPC, func(jp *aspect.JoinPoint, proceed aspect.ProceedFunc) ([]any, error) {
		orig := append([]any(nil), jp.Args...)
		var first any
		for i := 0; i < cfg.Workers; i++ {
			args := orig
			if cfg.WorkerArgs != nil {
				args = cfg.WorkerArgs(orig, i)
			}
			res, err := proceed(args)
			if err != nil {
				return nil, err
			}
			h.set.add(res[0])
			if i == 0 {
				first = res[0]
			}
		}
		return []any{first}, nil
	})

	// Step broadcast + barrier + boundary exchange. The step call returns
	// to the oblivious core loop only when the whole iteration (including
	// exchange) finished, preserving the sequential iteration structure.
	h.asp.Around(stepPC, func(jp *aspect.JoinPoint, proceed aspect.ProceedFunc) ([]any, error) {
		if jp.Marked(Internal | Remote) {
			return proceed(nil)
		}
		ctx := ctxOf(jp)
		workers := h.set.all()
		if len(workers) == 0 {
			return proceed(nil)
		}
		errs := h.stepBroadcast(ctx, workers, jp.Args)
		if cfg.Exchange != nil {
			call := func(cctx exec.Context, worker any, method string, cargs ...any) ([]any, error) {
				return cfg.Class.CallWith(cctx, Internal|NoAsync, worker, method, cargs...)
			}
			if err := cfg.Exchange(ctx, workers, call); err != nil {
				errs = append(errs, err)
			}
		}
		return nil, errors.Join(errs...)
	})
	return h
}

// beginStep registers n step activities with the module's join bookkeeping
// and returns their barrier.
func (h *Heartbeat) beginStep(ctx exec.Context, n int) exec.WaitGroup {
	barrier := ctx.NewWaitGroup()
	barrier.Add(n)
	h.mu.Lock()
	if h.wg == nil {
		h.wg = ctx.NewWaitGroup()
	}
	h.wg.Add(n)
	h.pending += n
	h.mu.Unlock()
	return barrier
}

func (h *Heartbeat) stepDone(barrier exec.WaitGroup) {
	barrier.Done()
	h.mu.Lock()
	h.pending--
	wg := h.wg
	h.mu.Unlock()
	wg.Done()
}

// stepBroadcast runs one step: one activity per partition, all spawned at
// once, joined at the barrier.
func (h *Heartbeat) stepBroadcast(ctx exec.Context, workers []any, args []any) []error {
	barrier := h.beginStep(ctx, len(workers))
	var errMu sync.Mutex
	var errs []error
	for i, w := range workers {
		w := w
		ctx.Spawn(fmt.Sprintf("heartbeat-%d", i), func(child exec.Context) {
			defer h.stepDone(barrier)
			if _, err := h.cfg.Class.CallWith(child, Internal|NoAsync, w, h.cfg.StepMethod, args...); err != nil {
				errMu.Lock()
				errs = append(errs, err)
				errMu.Unlock()
			}
		})
	}
	barrier.Wait(ctx)
	errMu.Lock()
	defer errMu.Unlock()
	return errs
}

// ModuleName implements Module.
func (h *Heartbeat) ModuleName() string { return fmt.Sprintf("heartbeat(%d)", h.cfg.Workers) }

// Plug implements Module.
func (h *Heartbeat) Plug(w *aspect.Weaver) { w.Plug(h.asp) }

// Unplug implements Module.
func (h *Heartbeat) Unplug(w *aspect.Weaver) { w.Unplug(h.asp) }

// Managed returns the domain partitions in creation order.
func (h *Heartbeat) Managed() []any { return h.set.all() }

// Collect gathers method() from every partition (see collect).
func (h *Heartbeat) Collect(ctx exec.Context, method string) ([]any, error) {
	return collect(ctx, h.cfg.Class, h.set.all(), method)
}

// Join implements Joiner.
func (h *Heartbeat) Join(ctx exec.Context) error {
	h.mu.Lock()
	wg := h.wg
	h.mu.Unlock()
	if wg != nil {
		wg.Wait(ctx)
	}
	return nil
}

// Quiet implements Joiner.
func (h *Heartbeat) Quiet() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.pending == 0
}
