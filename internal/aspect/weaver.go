package aspect

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Weaver composes aspects with woven call sites. It is the runtime analogue
// of the AspectJ compiler: call sites route through [Weaver.Call] and
// [Weaver.New], and the weaver wraps them with the advice of every plugged,
// enabled aspect whose pointcut matches, ordered by precedence (higher
// precedence outermost, ties in plug order).
//
// Chains are computed per static shadow (kind, type, method) and cached;
// plugging, unplugging, enabling, disabling or extending an aspect
// invalidates the cache. A zero-aspect weaver dispatches straight to the
// body, so unplugging every concern restores sequential behaviour — the
// paper's incremental development loop.
type Weaver struct {
	mu      sync.RWMutex
	aspects []*Aspect // plug order
	gen     atomic.Uint64

	cacheMu  sync.RWMutex
	cache    map[Shadow]*Chain
	cacheGen uint64
}

// Chain is the compiled advice stack of one shadow under one weaver
// configuration. A woven call site that builds its own joinpoints asks its
// [Site] for the chain first: when it is empty the site calls its body
// directly and no joinpoint is ever made.
type Chain struct {
	advs []AroundAdvice // outermost first
}

// Empty reports whether no advice applies, i.e. Run would just call the body.
func (c *Chain) Empty() bool { return len(c.advs) == 0 }

// Run executes the advice stack around body for the joinpoint, which must have
// the shadow the chain was compiled for.
func (c *Chain) Run(jp *JoinPoint, body ProceedFunc) ([]any, error) {
	return runChain(c.advs, jp, body, nil)
}

// Site is one woven call site: a fixed shadow under one weaver. It remembers
// the chain it last compiled with the configuration it was compiled under, so
// a site that dispatches over and over asks the weaver's cache only after
// something was plugged, unplugged, enabled or extended — AspectJ weaves a
// shadow once; a Site re-weaves it once per configuration change.
type Site struct {
	w      *Weaver
	shadow Shadow
	last   atomic.Pointer[compiled]
}

type compiled struct {
	gen   uint64
	chain *Chain
}

// Site returns a call site for the shadow.
func (w *Weaver) Site(s Shadow) *Site { return &Site{w: w, shadow: s} }

// Chain returns the site's advice chain under the weaver's current
// configuration.
func (st *Site) Chain() *Chain {
	gen := st.w.gen.Load()
	if c := st.last.Load(); c != nil && c.gen == gen {
		return c.chain
	}
	// The chain may already be a later configuration's than gen: then the next
	// call finds the generation moved on and asks again.
	chain := st.w.chainFor(st.shadow)
	st.last.Store(&compiled{gen: gen, chain: chain})
	return chain
}

// NewWeaver returns an empty weaver.
func NewWeaver() *Weaver {
	return &Weaver{cache: make(map[Shadow]*Chain)}
}

// Plug adds aspects to the weaver. Plugging the same aspect twice is an
// error (it would run its advice twice, which is never what the methodology
// wants); Plug panics in that case, as aspect composition is program
// structure, not data.
func (w *Weaver) Plug(aspects ...*Aspect) *Weaver {
	w.mu.Lock()
	for _, a := range aspects {
		if a == nil {
			w.mu.Unlock()
			panic("aspect: Plug(nil)")
		}
		for _, existing := range w.aspects {
			if existing == a {
				w.mu.Unlock()
				panic(fmt.Sprintf("aspect: aspect %q plugged twice", a.name))
			}
		}
		w.aspects = append(w.aspects, a)
		a.weavers.add(w)
	}
	w.mu.Unlock()
	w.invalidate()
	return w
}

// Unplug removes an aspect from the weaver; it reports whether the aspect
// was plugged.
func (w *Weaver) Unplug(a *Aspect) bool {
	w.mu.Lock()
	found := false
	for i, existing := range w.aspects {
		if existing == a {
			w.aspects = append(w.aspects[:i], w.aspects[i+1:]...)
			found = true
			break
		}
	}
	w.mu.Unlock()
	if found {
		a.weavers.remove(w)
		w.invalidate()
	}
	return found
}

// Aspects returns the plugged aspects in plug order.
func (w *Weaver) Aspects() []*Aspect {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]*Aspect, len(w.aspects))
	copy(out, w.aspects)
	return out
}

// invalidate drops all cached chains.
func (w *Weaver) invalidate() {
	w.gen.Add(1)
}

// chainFor returns the compiled advice chain for the shadow, building and
// caching it if needed.
func (w *Weaver) chainFor(s Shadow) *Chain {
	gen := w.gen.Load()
	w.cacheMu.RLock()
	if w.cacheGen == gen {
		if c, ok := w.cache[s]; ok {
			w.cacheMu.RUnlock()
			return c
		}
	}
	w.cacheMu.RUnlock()

	c := w.buildChain(s)

	w.cacheMu.Lock()
	if w.cacheGen != gen {
		// A configuration change raced with the build: reset the cache to
		// this generation. The freshly built chain may itself be stale, so
		// only publish it if the generation still matches.
		w.cache = make(map[Shadow]*Chain)
		w.cacheGen = gen
	}
	if w.gen.Load() == gen {
		if w.cacheGen == gen {
			w.cache[s] = c
		}
	} else {
		// Stale build; rebuild against the latest configuration.
		w.cacheMu.Unlock()
		return w.chainFor(s)
	}
	w.cacheMu.Unlock()
	return c
}

// buildChain collects matching advice ordered by precedence desc, plug order
// asc, declaration order asc.
func (w *Weaver) buildChain(s Shadow) *Chain {
	w.mu.RLock()
	plugged := make([]*Aspect, len(w.aspects))
	copy(plugged, w.aspects)
	w.mu.RUnlock()

	// Stable sort by descending precedence keeps plug order inside equal
	// precedence.
	sort.SliceStable(plugged, func(i, j int) bool {
		return plugged[i].precedence > plugged[j].precedence
	})

	var advs []AroundAdvice
	for _, a := range plugged {
		advs = a.matching(advs, s)
	}
	return &Chain{advs: advs}
}

// Call dispatches a method-call joinpoint through the weaver. ctx is the
// opaque execution context (threaded to advice via JoinPoint.Ctx), target the
// receiver, typeName/method the static call-site signature, body the original
// method body, and args the call arguments.
//
// With no matching advice the body runs directly with the given args and no
// joinpoint is built.
func (w *Weaver) Call(ctx any, target any, typeName, method string, body ProceedFunc, args ...any) ([]any, error) {
	c := w.chainFor(Shadow{Kind: KindCall, Type: typeName, Method: method})
	if c.Empty() {
		return body(args)
	}
	return c.Run(&JoinPoint{Kind: KindCall, Type: typeName, Method: method, Target: target, Args: args, Ctx: ctx}, body)
}

// New dispatches a construction joinpoint. The body constructs the object
// from the (possibly advice-modified) arguments and returns it as
// results[0]. New returns the constructed object, which advice may have
// replaced — the paper's object duplication returns the first element of an
// aspect-managed set.
func (w *Weaver) New(ctx any, typeName string, body ProceedFunc, args ...any) (any, error) {
	res, err := w.Dispatch(&JoinPoint{Kind: KindNew, Type: typeName, Method: "new", Args: args, Ctx: ctx}, body)
	if err != nil {
		return nil, err
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("aspect: construction of %s produced no object", typeName)
	}
	return res[0], nil
}

// Dispatch runs an explicit joinpoint through the advice chain. Call and New
// are the convenience forms; Dispatch exists for substrates (e.g. the RMI
// skeleton) that re-enter the weaver with a prepared joinpoint carrying
// advice-to-advice context.
func (w *Weaver) Dispatch(jp *JoinPoint, body ProceedFunc) ([]any, error) {
	return w.chainFor(jp.shadow()).Run(jp, body)
}

// runChain executes the advice stack from its outermost remaining advice:
// each advice's proceed runs the rest of the stack, and the body at the end.
// proceed(nil) keeps the current arguments; proceed(newArgs) rebinds jp.Args
// for inner advice and the body, restoring them afterwards so an around advice
// that proceeds twice with different argument sets (method-call split)
// observes consistent state. A proceed stays valid after its advice returned
// (the concurrency module runs the rest of the chain in a new activity), which
// is why each one remembers its own place in the stack instead of sharing a
// cursor.
func runChain(advs []AroundAdvice, jp *JoinPoint, body ProceedFunc, args []any) ([]any, error) {
	if args != nil {
		saved := jp.Args
		jp.Args = args
		defer func() { jp.Args = saved }()
	}
	if len(advs) == 0 {
		return body(jp.Args)
	}
	return advs[0](jp, func(next []any) ([]any, error) {
		return runChain(advs[1:], jp, body, next)
	})
}

// weaverSet tracks the weavers an aspect is plugged into so configuration
// changes on the aspect invalidate their caches.
type weaverSet struct {
	mu sync.Mutex
	ws map[*Weaver]int // refcount: an aspect could be plugged into w once only, but keep counts defensive
}

func (s *weaverSet) add(w *Weaver) {
	s.mu.Lock()
	if s.ws == nil {
		s.ws = make(map[*Weaver]int)
	}
	s.ws[w]++
	s.mu.Unlock()
}

func (s *weaverSet) remove(w *Weaver) {
	s.mu.Lock()
	if s.ws != nil {
		if s.ws[w] <= 1 {
			delete(s.ws, w)
		} else {
			s.ws[w]--
		}
	}
	s.mu.Unlock()
}

func (s *weaverSet) invalidateAll() {
	s.mu.Lock()
	for w := range s.ws {
		w.invalidate()
	}
	s.mu.Unlock()
}
