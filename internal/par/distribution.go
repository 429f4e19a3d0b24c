package par

import (
	"fmt"
	"sync"

	"aspectpar/internal/aspect"
	"aspectpar/internal/exec"
)

// Placement selects the node for each newly created distributed object —
// the policy slot the paper mentions ("several policies can be implemented
// in this aspect (e.g., random, round-robin)").
type Placement interface {
	// NodeFor returns the node for the i-th created object (0-based).
	NodeFor(i int) exec.NodeID
}

// RoundRobin places objects cyclically over nodes [first, first+count).
// Wrapping is modulo count, so RoundRobin(1, 6) uses nodes 1..6.
func RoundRobin(first exec.NodeID, count int) Placement {
	if count <= 0 {
		panic("par: RoundRobin over no nodes")
	}
	return roundRobin{first: first, count: count}
}

type roundRobin struct {
	first exec.NodeID
	count int
}

func (r roundRobin) NodeFor(i int) exec.NodeID {
	return r.first + exec.NodeID(i%r.count)
}

// SingleNode places every object on one node.
func SingleNode(n exec.NodeID) Placement { return singleNode(n) }

type singleNode exec.NodeID

func (s singleNode) NodeFor(int) exec.NodeID { return exec.NodeID(s) }

// Distribution is the paper's distribution module (Figure 14): it places
// aspect-managed objects on cluster nodes at construction joinpoints and
// redirects method calls on placed objects through the middleware. Plugged
// between async (outside) and sync (inside), so the caller's activity ships
// the call and mutual exclusion happens at the object's node.
type Distribution struct {
	asp *aspect.Aspect
	mw  Middleware

	mu      sync.Mutex
	policy  Placement
	created int
}

// NewDistribution builds the module for classes of dom: newPC selects the
// constructions to place remotely (e.g. new(PrimeFilter)), callPC the calls
// to redirect (e.g. call(PrimeFilter.*(..))).
func NewDistribution(dom *Domain, newPC, callPC aspect.Pointcut, mw Middleware, policy Placement) *Distribution {
	d := &Distribution{mw: mw, policy: policy}
	d.asp = aspect.NewAspect("distribution-"+mw.MiddlewareName(), precDistribution)

	// Server-side creation: intercept the construction, run it at the
	// selected node through the middleware's creation protocol, register
	// the instance under an automatically generated name (the paper's
	// "PS<instance number>").
	d.asp.Around(newPC, func(jp *aspect.JoinPoint, proceed aspect.ProceedFunc) ([]any, error) {
		ctx := ctxOf(jp)
		class, ok := dom.classOf(jp.Type)
		if !ok {
			return proceed(nil)
		}
		d.mu.Lock()
		d.created++
		n := d.created
		d.mu.Unlock()
		node := d.policy.NodeFor(n - 1)
		if v, ok := jp.Value(markPlaceAt); ok {
			// A pinned construction (Farm.Grow on a node that joined mid-run)
			// bypasses the placement policy, which was resolved before the
			// node existed.
			if pinned, ok := v.(exec.NodeID); ok {
				node = pinned
			}
		}
		name := fmt.Sprintf("PS%d", n)
		ctorArgs := append([]any(nil), jp.Args...)
		obj, err := d.mw.ExportNew(ctx, name, node, class, ctorArgs, func(rctx exec.Context) (any, error) {
			// The constructor body (and the metering advice inside it)
			// executes at the remote node.
			saved := jp.Ctx
			jp.Ctx = rctx
			defer func() { jp.Ctx = saved }()
			res, err := proceed(nil)
			if err != nil {
				return nil, err
			}
			if len(res) == 0 || res[0] == nil {
				return nil, fmt.Errorf("par: construction of %s produced no object", jp.Type)
			}
			return res[0], nil
		})
		if err != nil {
			return nil, err
		}
		return []any{obj}, nil
	})

	// Client-side redirection: calls on placed objects go through the
	// middleware; the server side re-enters the weaver with markRemote, so
	// this advice stands aside there. A call marked windowed by a
	// self-scheduling dispatcher is shipped asynchronously when the
	// middleware supports it: the advice returns immediately after the send
	// costs and the completion travels back on the slot's channel.
	d.asp.Around(callPC, func(jp *aspect.JoinPoint, proceed aspect.ProceedFunc) ([]any, error) {
		if jp.Marked(Remote) {
			return proceed(nil)
		}
		if _, placed := d.mw.NodeOf(jp.Target); !placed {
			return proceed(nil) // not a distributed object: stay local
		}
		ctx := ctxOf(jp)
		if v, ok := jp.Value(markWindowed); ok {
			if slot, ok := v.(*windowSlot); ok && slot != nil {
				if async, ok := d.mw.(asyncInvoker); ok {
					slot.issued = true
					async.InvokeAsync(ctx, jp.Target, jp.Method, jp.Args, jp.Marked(Void), slot.done)
					return nil, nil
				}
			}
		}
		return d.mw.Invoke(ctx, jp.Target, jp.Method, jp.Args, jp.Marked(Void))
	})
	return d
}

// ModuleName implements Module.
func (d *Distribution) ModuleName() string { return "distribution(" + d.mw.MiddlewareName() + ")" }

// Plug implements Module.
func (d *Distribution) Plug(w *aspect.Weaver) { w.Plug(d.asp) }

// Unplug implements Module.
func (d *Distribution) Unplug(w *aspect.Weaver) { w.Unplug(d.asp) }

// Middleware returns the middleware the module redirects through.
func (d *Distribution) Middleware() Middleware { return d.mw }

// Join implements joiner by delegating to the middleware when it tracks
// in-flight work (one-way sends).
func (d *Distribution) Join(ctx exec.Context) error {
	if j, ok := d.mw.(joiner); ok {
		return j.Join(ctx)
	}
	return nil
}

// Quiet implements joiner.
func (d *Distribution) Quiet() bool {
	if j, ok := d.mw.(joiner); ok {
		return j.Quiet()
	}
	return true
}
