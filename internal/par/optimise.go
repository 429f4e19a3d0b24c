package par

import (
	"fmt"
	"sync"

	"aspectpar/internal/aspect"
	"aspectpar/internal/exec"
)

// This file implements the paper's fourth concern category: optimisation
// aspects (Section 4.4). "Examples are: thread pools, cache objects,
// communication packing and replicated computation." Communication packing
// is implemented here as an independently pluggable module. The thread pool
// is subsumed by the concurrency module's per-object queue: one drainer per
// busy object, not one activity per call (TestAsyncCallsDoNotPileUpGoroutines
// pins the bound).

// markPacked flags calls that carry an already-merged payload so the packing
// advice does not re-buffer them.
const markPacked = "par.packed"

var packed = aspect.RegisterMark(markPacked)

// Packing merges consecutive partition-generated calls to the same target
// into fewer, larger calls (the paper's "communication packing"): with a
// distribution middleware plugged, k packs travel as one message, trading
// per-message overhead against pipelining. It applies to methods whose
// single argument is an []int32 payload — the shape of the paper's number
// packs; a Lazy pack is built before packing sees it. Buffered work is
// flushed when Degree packs accumulated per target; Flush pushes out the
// remainder (the harness calls it before Join).
type Packing struct {
	class  *Class
	method string
	degree int
	asp    *aspect.Aspect

	mu     sync.Mutex
	buf    map[any][]int32
	count  map[any]int
	order  []any // targets in first-buffered order: Flush must be deterministic
	merged int64
	calls  int64
}

// NewPacking builds the module: calls to class.method are packed Degree-to-1.
func NewPacking(class *Class, method string, degree int) *Packing {
	if degree <= 1 {
		panic(fmt.Sprintf("par: packing degree %d", degree))
	}
	p := &Packing{
		class:  class,
		method: method,
		degree: degree,
		buf:    make(map[any][]int32),
		count:  make(map[any]int),
	}
	pc := aspect.Call(class.name, method)
	p.asp = aspect.NewAspect("packing", precOptimisation).
		Around(pc, func(jp *aspect.JoinPoint, proceed aspect.ProceedFunc) ([]any, error) {
			if !jp.Marked(Internal) || jp.Marked(Remote|packed) {
				return proceed(nil)
			}
			payload, ok := singleInt32Payload(jp.Args)
			if !ok {
				return proceed(nil)
			}
			ctx := ctxOf(jp)
			p.mu.Lock()
			p.calls++
			if _, buffered := p.buf[jp.Target]; !buffered {
				p.order = append(p.order, jp.Target)
			}
			p.buf[jp.Target] = append(p.buf[jp.Target], payload...)
			p.count[jp.Target]++
			ready := p.count[jp.Target] >= p.degree
			var full []int32
			if ready {
				full = p.buf[jp.Target]
				delete(p.buf, jp.Target)
				delete(p.count, jp.Target)
				p.dropOrder(jp.Target)
				p.merged++
			}
			p.mu.Unlock()
			if !ready {
				return nil, nil // buffered; the call is void/asynchronous
			}
			return p.class.CallWith(ctx, Internal|packed,
				jp.Target, p.method, full)
		})
	return p
}

func singleInt32Payload(args []any) ([]int32, bool) {
	if len(args) != 1 {
		return nil, false
	}
	payload, ok := args[0].([]int32)
	return payload, ok
}

// Lazy is a pack payload that a partition's Split may return in place of an
// []int32: Len elements that Build makes only when the pack's call is
// issued, so a split never holds every pack at once. Halve must cut at
// Len()/2, the midpoint an []int32 pack is halved at, and the halves must
// Build to the two parts of the whole's Build.
type Lazy interface {
	Len() int
	Halve() (a, b Lazy)
	Build() []int32
}

// built returns the arguments of a call marked Internal with a Lazy payload
// built, and any other call's as they are. The call sites of aspect-generated
// calls (Class.CallWith, Class.callWindowed) are the one place that calls it.
func built(marks aspect.Marks, args []any) []any {
	if l, ok := lazyPayload(args); ok && marks&Internal != 0 {
		return []any{l.Build()}
	}
	return args
}

func lazyPayload(args []any) (Lazy, bool) {
	if len(args) != 1 {
		return nil, false
	}
	l, ok := args[0].(Lazy)
	return l, ok
}

// splitInt32Payload is the inverse of packing's merge: it halves a call whose
// single argument is an []int32 or Lazy payload into two calls of at least
// min elements each, a Lazy one without building it. The steal scheduler
// uses it as its default dynamic pack-sizing rule; ok is false for other
// argument shapes or payloads too small to split.
func splitInt32Payload(args []any, min int) (a, b []any, ok bool) {
	if l, ok := lazyPayload(args); ok && l.Len() >= 2*min {
		x, y := l.Halve()
		return []any{x}, []any{y}, true
	}
	payload, ok := singleInt32Payload(args)
	if !ok || len(payload) < 2*min {
		return nil, nil, false
	}
	mid := len(payload) / 2
	return []any{payload[:mid:mid]}, []any{payload[mid:]}, true
}

// payloadElems reports the []int32 payload length of a call's argument list
// (0 when the shape differs).
func payloadElems(args []any) int {
	payload, ok := singleInt32Payload(args)
	if !ok {
		return 0
	}
	return len(payload)
}

// dropOrder removes a flushed target from the insertion-order list; called
// with p.mu held.
func (p *Packing) dropOrder(target any) {
	for i, t := range p.order {
		if t == target {
			p.order = append(p.order[:i], p.order[i+1:]...)
			return
		}
	}
}

// Flush sends every partially filled buffer as a final merged call, in the
// order the targets first buffered. Iterating the buffer map here would
// flush in Go's randomised map order — measurably nondeterministic virtual
// times (the packing bench cells drifted ~25µs between identical runs
// before this was pinned down).
func (p *Packing) Flush(ctx exec.Context) error {
	p.mu.Lock()
	targets := p.order
	pendings := p.buf
	p.merged += int64(len(targets))
	p.order = nil
	p.buf = make(map[any][]int32)
	p.count = make(map[any]int)
	p.mu.Unlock()
	for _, t := range targets {
		if _, err := p.class.CallWith(ctx, Internal|packed, t, p.method, pendings[t]); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns (callsBuffered, mergedMessagesSent).
func (p *Packing) Stats() (calls, merged int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls, p.merged
}

// ModuleName implements Module.
func (p *Packing) ModuleName() string { return fmt.Sprintf("packing(%d)", p.degree) }

// Plug implements Module.
func (p *Packing) Plug(w *aspect.Weaver) { w.Plug(p.asp) }

// Unplug implements Module.
func (p *Packing) Unplug(w *aspect.Weaver) { w.Unplug(p.asp) }
