package par

import (
	"fmt"
	"sync"

	"aspectpar/internal/aspect"
	"aspectpar/internal/exec"
)

// Joinpoint marks used by the modules to coordinate along an advice chain.
// They reproduce pointcut restrictions the paper writes as "only intercepts
// ... in the core functionality": calls generated by aspect code carry
// MarkInternal so the split advice does not re-split them, and server-side
// re-entries carry markRemote so distribution and async advice stand aside.
const (
	// MarkInternal flags calls generated by partition aspect code.
	MarkInternal = "par.internal"
	// markRemote flags server-side re-entries delivered by a middleware.
	markRemote = "par.remote"
	// MarkNoAsync asks the concurrency module to run this call inline
	// (used by modules that manage their own activities, e.g. DynamicFarm).
	MarkNoAsync = "par.noasync"
	// markVoid flags calls whose results the original caller discards
	// (asynchronous fire-and-forget calls). Middlewares reply with a bare
	// acknowledgement instead of shipping the result payload — the paper's
	// methods are void, so this keeps the modelled traffic faithful.
	markVoid = "par.void"
	// markWindowed carries a *windowSlot placed by the windowed
	// self-scheduling dispatchers: distribution advice over an asyncInvoker
	// middleware issues the call asynchronously, flags the slot issued, and
	// the completion arrives on the slot's channel instead of inline.
	markWindowed = "par.windowed"
	// markPlaceAt carries an exec.NodeID pinning a construction joinpoint to
	// one node, overriding the distribution module's placement policy. The
	// elastic pool uses it to build a replica on a node that joined mid-run
	// (Farm.Grow) — the policy resolved at round start knows nothing of the
	// newcomer.
	markPlaceAt = "par.placeat"
)

// The boolean marks as bits. Call sites pass them to CallWith and advice
// tests them with JoinPoint.Marked — no allocation either way; the names
// above are how the same bits read through JoinPoint.Set, Value and Bool.
var (
	Internal = aspect.RegisterMark(MarkInternal)
	Remote   = aspect.RegisterMark(markRemote)
	NoAsync  = aspect.RegisterMark(MarkNoAsync)
	Void     = aspect.RegisterMark(markVoid)
)

// MethodBody is the original, sequential body of a method: plain code with
// no parallelism concerns.
type MethodBody func(target any, args []any) ([]any, error)

// Constructor builds a core object from constructor arguments.
type Constructor func(args []any) (any, error)

// Domain is one woven application universe: a weaver plus the classes whose
// call sites route through it. Middlewares use the domain to re-enter the
// weaver on the server side of a remote call.
type Domain struct {
	weaver *aspect.Weaver

	mu      sync.RWMutex
	classes map[string]*Class
}

// NewDomain creates an empty domain with a fresh weaver.
func NewDomain() *Domain {
	return &Domain{weaver: aspect.NewWeaver(), classes: make(map[string]*Class)}
}

// Weaver returns the domain's weaver, where modules plug their aspects.
func (d *Domain) Weaver() *aspect.Weaver { return d.weaver }

// Define registers a class: its logical name (the name pointcuts match), a
// constructor, and the method table of sequential bodies. Defining the same
// name twice panics — class identity is program structure.
func (d *Domain) Define(name string, ctor Constructor, methods map[string]MethodBody) *Class {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.classes[name]; dup {
		panic(fmt.Sprintf("par: class %q defined twice", name))
	}
	c := &Class{dom: d, name: name, ctor: ctor, methods: make(map[string]method, len(methods))}
	for m, body := range methods {
		c.methods[m] = method{body: body, site: d.weaver.Site(aspect.Shadow{Kind: aspect.KindCall, Type: name, Method: m})}
	}
	d.classes[name] = c
	return c
}

// classOf looks up a class by name; ok reports whether it exists.
func (d *Domain) classOf(name string) (*Class, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c, ok := d.classes[name]
	return c, ok
}

// Class is a woven core class: the sequential bodies plus the call sites
// that route through the weaver. It corresponds to an AspectJ-compiled
// class: the bodies are untouched, the call sites are interception shadows.
type Class struct {
	dom     *Domain
	name    string
	ctor    Constructor
	methods map[string]method

	wireMu      sync.Mutex
	wireSamples []any
	forwards    map[string]ForwardFunc
}

// method is one woven method: the sequential body and the call site its calls
// dispatch through.
type method struct {
	body MethodBody
	site *aspect.Site
}

// ForwardFunc derives the arguments of the next pipeline hop from a completed
// stage call: stage is the index of the stage that just ran, results its
// return values, args the arguments it ran with. Returning nil stops
// propagation at this stage. It must be pure data-in/data-out — a named
// forward rule registered with DefineForward runs in whichever process hosts
// the stage, so it cannot close over driver state.
type ForwardFunc func(stage int, results, args []any) []any

// DefineForward registers a named forward rule on the class. Closures cannot
// cross the wire, so peer-to-peer pipeline forwarding (Pipeline.UseTopology)
// names the rule instead: every process that defines the class — driver and
// worker nodes alike, typically through one shared DefineClass helper —
// registers the same rule under the same name, and the installed topology
// carries only the name. Registering the same name twice panics, like
// defining a class twice: rule identity is program structure. It returns the
// class for chaining after Define.
func (c *Class) DefineForward(name string, fn ForwardFunc) *Class {
	if name == "" || fn == nil {
		panic("par: DefineForward wants a non-empty name and a non-nil rule")
	}
	c.wireMu.Lock()
	defer c.wireMu.Unlock()
	if c.forwards == nil {
		c.forwards = make(map[string]ForwardFunc)
	}
	if _, dup := c.forwards[name]; dup {
		panic(fmt.Sprintf("par: forward rule %q defined twice on class %s", name, c.name))
	}
	c.forwards[name] = fn
	return c
}

// forwardRule looks up a registered forward rule; ok reports whether it
// exists.
func (c *Class) forwardRule(name string) (ForwardFunc, bool) {
	c.wireMu.Lock()
	defer c.wireMu.Unlock()
	fn, ok := c.forwards[name]
	return fn, ok
}

// Wire declares sample values of the concrete types this class's
// constructor and methods carry inside argument and result lists — the
// class's wire-type metadata. Transports that marshal interface payloads
// (the real-TCP middleware) register these with their codec on both ends of
// the connection (rmi.RegisterType), so a class defined identically in two
// processes agrees on its encoding. A declared slice type over int32, int64,
// float64 or byte elements (type Frame []float64), or a slice of such slices
// ([]Frame), crosses the binary codec under its name with the fast array
// encoding and arrives as the same type; structs and maps take the codec's
// gob fallback. Wire returns the class for chaining after Define.
func (c *Class) Wire(samples ...any) *Class {
	c.wireMu.Lock()
	c.wireSamples = append(c.wireSamples, samples...)
	c.wireMu.Unlock()
	return c
}

// wireTypes returns the declared wire-type samples.
func (c *Class) wireTypes() []any {
	c.wireMu.Lock()
	defer c.wireMu.Unlock()
	return append([]any(nil), c.wireSamples...)
}

// New is the woven construction site: it dispatches a construction joinpoint
// through the weaver; partition advice may duplicate the object, and
// distribution advice may place it on a remote node.
func (c *Class) New(ctx exec.Context, args ...any) (any, error) {
	return c.construct(ctx, args, nil)
}

// newAt is the construction site used by aspect code to add one managed
// object on a given node: the joinpoint is marked Internal and NoAsync, so the
// partition modules' duplication advice stands aside, and carries the node
// under markPlaceAt, which overrides the distribution module's placement
// policy. Distribution advice still runs — this is how Farm.Grow builds a
// replica on a node that joined mid-run.
func (c *Class) newAt(ctx exec.Context, node exec.NodeID, args ...any) (any, error) {
	return c.construct(ctx, args, func(jp *aspect.JoinPoint) {
		jp.Mark(Internal | NoAsync)
		jp.Set(markPlaceAt, node)
	})
}

func (c *Class) construct(ctx exec.Context, args []any, mark func(*aspect.JoinPoint)) (any, error) {
	if c.ctor == nil {
		return nil, fmt.Errorf("par: class %s has no constructor", c.name)
	}
	jp := &aspect.JoinPoint{Kind: aspect.KindNew, Type: c.name, Method: "new", Args: args, Ctx: ctx}
	if mark != nil {
		mark(jp)
	}
	res, err := c.dom.weaver.Dispatch(jp, func(a []any) ([]any, error) {
		obj, err := c.ctor(a)
		if err != nil {
			return nil, err
		}
		return []any{obj}, nil
	})
	if err != nil {
		return nil, err
	}
	if len(res) == 0 || res[0] == nil {
		return nil, fmt.Errorf("par: construction of %s produced no object", c.name)
	}
	return res[0], nil
}

// Call is the woven call site for core-functionality calls.
func (c *Class) Call(ctx exec.Context, target any, method string, args ...any) ([]any, error) {
	return c.call(ctx, target, method, args, nil)
}

// CallWith is the call site used by aspect code: marks distinguish
// aspect-generated calls (Internal), server-side re-entries (Remote), inline
// execution requests (NoAsync) and calls whose results nobody reads (Void).
// An Internal call's Lazy payload is built here, as the call enters the
// weaver, so no advice and no middleware ever sees a Lazy.
func (c *Class) CallWith(ctx exec.Context, marks aspect.Marks, target any, method string, args ...any) ([]any, error) {
	return c.call(ctx, target, method, built(marks, args), func(jp *aspect.JoinPoint) { jp.Mark(marks) })
}

// CallMarked is CallWith for context given by name: every entry of marks is
// attached with JoinPoint.Set, so the Mark* names land on the same bits
// CallWith sets and any other key travels as a named value.
func (c *Class) CallMarked(ctx exec.Context, marks map[string]any, target any, method string, args ...any) ([]any, error) {
	return c.call(ctx, target, method, args, func(jp *aspect.JoinPoint) {
		for k, v := range marks {
			jp.Set(k, v)
		}
	})
}

// callWindowed is the call site of the windowed self-scheduling dispatchers:
// an inline, aspect-generated call carrying the slot its completion may be
// delivered on (see markWindowed). Its Lazy payload is built as in CallWith.
func (c *Class) callWindowed(ctx exec.Context, slot *windowSlot, target any, method string, args []any) ([]any, error) {
	return c.call(ctx, target, method, built(Internal, args), func(jp *aspect.JoinPoint) {
		jp.Mark(Internal | NoAsync)
		jp.Set(markWindowed, slot)
	})
}

// call is the one woven call site behind the forms above. It asks the weaver
// for the method's advice chain first: with none plugged the sequential body
// runs directly — no joinpoint, no closure, nothing allocated — which is what
// weaving costs a call no concern applies to. Otherwise it builds the
// joinpoint and lets mark (nil: nothing to attach) put the caller's context
// on it.
func (c *Class) call(ctx exec.Context, target any, method string, args []any, mark func(*aspect.JoinPoint)) ([]any, error) {
	m, ok := c.methods[method]
	if !ok {
		return nil, fmt.Errorf("par: class %s has no method %s", c.name, method)
	}
	body, chain := m.body, m.site.Chain()
	if chain.Empty() {
		return body(target, args)
	}
	jp := &aspect.JoinPoint{Kind: aspect.KindCall, Type: c.name, Method: method, Target: target, Args: args, Ctx: ctx}
	if mark != nil {
		mark(jp)
	}
	return chain.Run(jp, func(a []any) ([]any, error) {
		return body(target, a)
	})
}

// dispatch is the server-side entry used by middlewares: it re-enters the
// weaver marked Remote, so distribution advice executes the body locally and
// async advice does not detach the already-delivered call.
func (c *Class) dispatch(ctx exec.Context, target any, method string, args []any) ([]any, error) {
	return c.CallWith(ctx, Remote, target, method, args...)
}

// ctxOf extracts the execution context from a joinpoint; the woven call
// sites always thread one, so absence is an internal error worth a loud stop.
func ctxOf(jp *aspect.JoinPoint) exec.Context {
	ctx, ok := jp.Ctx.(exec.Context)
	if !ok {
		panic(fmt.Sprintf("par: joinpoint %s carries no execution context (got %T)", jp.Signature(), jp.Ctx))
	}
	return ctx
}

// Module is a pluggable parallelisation concern. Modules wrap one or more
// kernel aspects (a concern may need advice at several precedence levels).
type Module interface {
	// ModuleName identifies the concern in diagnostics and Table 1 rows.
	ModuleName() string
	// Plug installs the module's aspects into the weaver.
	Plug(w *aspect.Weaver)
	// Unplug removes the module's aspects from the weaver.
	Unplug(w *aspect.Weaver)
}

// joiner is implemented by modules that own asynchronous work (concurrency,
// one-way middlewares, self-scheduling partitions). Stack.Join drives them
// to quiescence.
type joiner interface {
	// Join blocks until currently known work finished.
	Join(ctx exec.Context) error
	// Quiet reports whether no work is pending right now.
	Quiet() bool
}

// Stack composes the modules of one experiment configuration — one row of
// the paper's Table 1.
type Stack struct {
	dom  *Domain
	mods []Module
}

// NewStack plugs the modules into the domain's weaver, in order. A
// Distribution among them tells the stack's Concurrency modules which targets
// it places: calls on those keep an activity each (see Concurrency).
func NewStack(dom *Domain, mods ...Module) *Stack {
	s := &Stack{dom: dom, mods: mods}
	for _, m := range mods {
		m.Plug(dom.Weaver())
		if d, ok := m.(*Distribution); ok {
			for _, o := range mods {
				if c, ok := o.(*Concurrency); ok {
					c.mu.Lock()
					c.placed = d.mw.NodeOf
					c.mu.Unlock()
				}
			}
		}
	}
	return s
}

// Join drives every joiner module to quiescence. Asynchronous work can
// create more asynchronous work (a pipeline stage forwards to the next, a
// one-way message spawns a server-side activity), so Join loops until a full
// pass observes every module quiet.
func (s *Stack) Join(ctx exec.Context) error {
	for {
		for _, m := range s.mods {
			if j, ok := m.(joiner); ok {
				if err := j.Join(ctx); err != nil {
					return err
				}
			}
		}
		quiet := true
		for _, m := range s.mods {
			if j, ok := m.(joiner); ok && !j.Quiet() {
				quiet = false
				break
			}
		}
		if quiet {
			return nil
		}
	}
}

// Unplug removes all modules from the weaver, restoring sequential
// behaviour.
func (s *Stack) Unplug() {
	for _, m := range s.mods {
		m.Unplug(s.dom.Weaver())
	}
}

// Module precedence levels; see the package comment for the resulting chain.
const (
	precPartition     = 40
	precOptimisation  = 35
	precAsync         = 30
	precClientForward = 25 // pipeline forwarding at the caller (PipelineConfig.ClientForward)
	precDistribution  = 20
	precSync          = 10
	precForward       = 8
	precMetering      = 5
)
