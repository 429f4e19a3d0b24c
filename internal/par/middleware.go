package par

import (
	"fmt"
	"sync"
	"time"

	"aspectpar/internal/cluster"
	"aspectpar/internal/exec"
	"aspectpar/internal/simnet"
)

// Middleware is the distribution substrate interface the Distribution module
// programs against. The paper's point is precisely that swapping RMI for MPP
// (or a hybrid) is a one-line change in the distribution aspect; this
// interface is that seam. There are two implementations: one simulated
// middleware, which models cost on the virtual cluster and whose two
// constructors (NewSimRMI, NewSimMPP) differ only in link profile and
// protocol traits, and the real backend (DialNet), which ships calls over
// TCP to rmi.Node worker processes.
type Middleware interface {
	// MiddlewareName identifies the implementation ("rmi", "mpp", "netrmi").
	MiddlewareName() string
	// ExportNew creates an object remotely: it models the creation protocol
	// (control message to the node, running build there, reply), registers
	// the object at the node, and returns it. name follows the paper's
	// "PS<n>" naming. args are the construction joinpoint's arguments — the
	// wire form of the creation request; build runs the woven constructor
	// body. In-process middlewares execute build at the placement node's
	// context; process-separated middlewares ship args to the remote node's
	// own domain instead and return a client-side remote reference.
	ExportNew(ctx exec.Context, name string, node exec.NodeID, class *Class,
		args []any, build func(rctx exec.Context) (any, error)) (any, error)
	// NodeOf reports the placement of an exported object.
	NodeOf(obj any) (exec.NodeID, bool)
	// Invoke performs a remote method invocation on an exported object.
	// void indicates the caller discards the results, so the reply can be
	// a bare acknowledgement.
	Invoke(ctx exec.Context, obj any, method string, args []any, void bool) ([]any, error)
	// Stats returns the accumulated traffic counters.
	Stats() CommStats
}

// Completion is the reclamation record of one windowed asynchronous
// invocation: AsyncInvoker.InvokeAsync delivers exactly one on the done
// channel it was given, once the server executed the call and put the
// acknowledgement on the wire. The caller settles the reply's client-side
// costs with Reclaim.
type Completion struct {
	// Res and Err are the invocation's outcome (Res is nil for void calls,
	// whose acknowledgement carries no payload).
	Res []any
	Err error

	// Reply-tail accounting: when the completion is delivered the
	// acknowledgement is still on the wire; these drive Reclaim. They are
	// zero for completions that model no reply message (e.g. a true one-way
	// transport) and for the real backend (whose wire time is real), making
	// Reclaim free.
	sentAt time.Duration
	size   int
	link   simnet.LinkProfile
}

// Reclaim charges the caller-side tail of the acknowledgement — the residual
// wire time and the receive/unmarshal CPU — to the reclaiming activity, and
// returns the invocation's outcome. Reclaiming twice charges once.
func (c *Completion) Reclaim(ctx exec.Context) ([]any, error) {
	if c.size > 0 {
		waitArrival(ctx, c.link, c.sentAt, c.size)
		c.size = 0
	}
	return c.Res, c.Err
}

// AsyncInvoker is an optional Middleware capability: pipelined (windowed)
// remote invocation. InvokeAsync returns to the caller as soon as the
// request's sender-side costs are paid — the wire transfer, the server-side
// dispatch and the reply all overlap with whatever the caller does next —
// and delivers one *Completion on done when the call has been executed.
// Calls from one client to one object are executed in send order (the
// pipelined-connection semantics of the windowed RMI protocol), so windowed
// dispatch stays deterministic under virtual time.
type AsyncInvoker interface {
	InvokeAsync(ctx exec.Context, obj any, method string, args []any, void bool, done exec.Chan)
}

// CommStats counts middleware traffic for the experiment reports.
type CommStats struct {
	// Messages is the number of network messages (requests and replies).
	Messages int64
	// Bytes is the total payload volume.
	Bytes int64
}

type exportEntry struct {
	name  string
	node  exec.NodeID
	class *Class
}

// registry is the export table shared by the middleware implementations; it
// plays the paper's name-server role.
type registry struct {
	mu   sync.Mutex
	objs map[any]*exportEntry
}

func newRegistry() *registry { return &registry{objs: make(map[any]*exportEntry)} }

func (r *registry) add(obj any, e *exportEntry) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.objs[obj]; dup {
		return fmt.Errorf("par: object %q exported twice", e.name)
	}
	r.objs[obj] = e
	return nil
}

func (r *registry) lookup(obj any) (*exportEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.objs[obj]
	return e, ok
}

// nodeOf reads an entry's placement under the registry lock — the read the
// fault layer's failover remap races against.
func (r *registry) nodeOf(obj any) (exec.NodeID, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.objs[obj]
	if !ok {
		return 0, false
	}
	return e.node, true
}

// setNode remaps an exported object's placement — the fault layer's
// failover moving a lost node's objects to a surviving one.
func (r *registry) setNode(obj any, node exec.NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.objs[obj]; ok {
		e.node = node
	}
}

// statsBox accumulates CommStats under a lock.
type statsBox struct {
	mu sync.Mutex
	s  CommStats
}

func (b *statsBox) count(messages, bytes int64) {
	b.mu.Lock()
	b.s.Messages += messages
	b.s.Bytes += bytes
	b.mu.Unlock()
}

func (b *statsBox) get() CommStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.s
}

// --- Shared middleware core -------------------------------------------------

// replyFloor is the minimum wire size of a reply message: protocol headers
// and status, shipped even when a void call's acknowledgement carries no
// payload.
const replyFloor = 16

// mwCore is the middleware-independent plumbing every Middleware
// implementation shares: the export registry (the paper's name-server role),
// the traffic counters, and the payload sizer that feeds both the stats and
// the simulated cost models. Implementations embed it and inherit Stats and
// NodeOf.
type mwCore struct {
	sizer simnet.Sizer
	reg   *registry
	stats statsBox
}

func newMWCore() mwCore {
	return mwCore{sizer: simnet.GobSizer{}, reg: newRegistry()}
}

// Stats implements Middleware.
func (m *mwCore) Stats() CommStats { return m.stats.get() }

// NodeOf implements Middleware. The read goes through the registry lock so
// a concurrent failover remap (setNode) is observed atomically.
func (m *mwCore) NodeOf(obj any) (exec.NodeID, bool) {
	return m.reg.nodeOf(obj)
}

// entryOf resolves obj's export entry, failing with the uniform
// invoke-on-unexported-object error.
func (m *mwCore) entryOf(mwName, method string, obj any) (*exportEntry, error) {
	e, ok := m.reg.lookup(obj)
	if !ok {
		return nil, fmt.Errorf("par: %s invoke on unexported object (%s)", mwName, method)
	}
	return e, nil
}

// replySize returns the wire size of a reply carrying res: the payload size
// for value-returning calls, the bare acknowledgement floor for void ones.
func (m *mwCore) replySize(void bool, res []any) int {
	size := replyFloor
	if !void {
		if s := m.sizer.Size(res); s > size {
			size = s
		}
	}
	return size
}

// simLinks is the link-profile pair of the simulated middleware: the remote
// profile between distinct nodes, the loopback profile for co-located
// objects.
type simLinks struct {
	remote, local simnet.LinkProfile
}

func newSimLinks(p simnet.LinkProfile) simLinks {
	return simLinks{remote: p, local: simnet.LoopbackProfile(p)}
}

func (l simLinks) link(from, to exec.NodeID) simnet.LinkProfile {
	if from == to {
		return l.local
	}
	return l.remote
}

// waitArrival is the receiver side of one modelled message transfer: sleep
// until the message sent at sentAt has fully crossed the wire, then charge
// the receive/unmarshal CPU to the receiving activity — the serve loop for a
// request, the reclaiming caller for a reply.
func waitArrival(sctx exec.Context, link simnet.LinkProfile, sentAt time.Duration, size int) {
	if arrival := sentAt + link.WireTime(size); arrival > sctx.Now() {
		sctx.Sleep(arrival - sctx.Now())
	}
	sctx.Compute(link.RecvCPU(size))
}

// --- Simulated middleware ----------------------------------------------------

// simMW models the paper's two middlewares on the simulated cluster, Java RMI
// and its Java MPP library. Every request is one marshalled message that
// crosses the modelled link and is dispatched through the domain weaver at
// the object's node (Class.Dispatch), as an RMI skeleton or the paper's
// Figure 15 MPP server loop invokes the woven method. The two differ in the
// link profile and in two protocol traits:
//
//   - rmi: a synchronous call runs inline on the caller's activity, and
//     creation is acknowledged by a full reply message. Without it every
//     call is a message to the object's serve loop, and the creation
//     acknowledgement costs only its wire time.
//   - oneway: the methods that are fire-and-forget sends (MPP's comm.send
//     of filter packs); every other call gets a reply.
type simMW struct {
	mwCore
	links  simLinks
	rmi    bool
	oneway map[string]bool

	mu      sync.Mutex
	inboxes map[any]exec.Chan // per-object serve-loop queues (lazy)
	wg      exec.WaitGroup    // one-way messages in flight
	pending int
}

// NewSimRMI returns an RMI middleware over the simulated cluster:
// synchronous request/reply, heavy per-call software overhead, object
// serialisation costs on both sides.
func NewSimRMI(cl *cluster.Cluster) Middleware {
	return &simMW{mwCore: newMWCore(), links: newSimLinks(simnet.RMIProfile()), rmi: true,
		inboxes: make(map[any]exec.Chan)}
}

// NewSimMPP returns an MPP middleware over the simulated cluster: thin
// framing, every call a message to the object's serve loop. Methods named in
// oneWayMethods are fire-and-forget sends (the paper's comm.send of filter
// packs); all other methods use request/reply.
func NewSimMPP(cl *cluster.Cluster, oneWayMethods ...string) Middleware {
	ow := make(map[string]bool, len(oneWayMethods))
	for _, m := range oneWayMethods {
		ow[m] = true
	}
	return &simMW{mwCore: newMWCore(), links: newSimLinks(simnet.MPPProfile()), oneway: ow,
		inboxes: make(map[any]exec.Chan)}
}

func (m *simMW) MiddlewareName() string {
	if m.rmi {
		return "rmi"
	}
	return "mpp"
}

// transfer models one message crossing the link inline: sender-side CPU,
// wire, and receiver-side CPU charged to rctx's node.
func (m *simMW) transfer(ctx, rctx exec.Context, link simnet.LinkProfile, size int) {
	ctx.Compute(link.SendCPU(size))
	ctx.Sleep(link.WireTime(size))
	rctx.Compute(link.RecvCPU(size))
	m.stats.count(1, int64(size))
}

func (m *simMW) ExportNew(ctx exec.Context, name string, node exec.NodeID, class *Class,
	args []any, build func(rctx exec.Context) (any, error)) (any, error) {
	rctx := ctx.OnNode(node)
	link := m.links.link(ctx.Node(), node)
	// Creation protocol: contact the remote runtime and the name server,
	// build there, receive the reference back.
	m.transfer(ctx, rctx, link, 64)
	obj, err := build(rctx)
	if err != nil {
		return nil, err
	}
	if m.rmi {
		m.transfer(rctx, ctx, link, 64)
	} else {
		ctx.Sleep(link.WireTime(64))
		m.stats.count(1, 64)
	}
	if err := m.reg.add(obj, &exportEntry{name: name, node: node, class: class}); err != nil {
		return nil, err
	}
	return obj, nil
}

func (m *simMW) Invoke(ctx exec.Context, obj any, method string, args []any, void bool) ([]any, error) {
	e, err := m.entryOf(m.MiddlewareName(), method, obj)
	if err != nil {
		return nil, err
	}
	if m.rmi {
		// Request, dispatch through the woven server, reply: RMI is
		// synchronous even for void methods, but a void call ships only an
		// acknowledgement.
		link := m.links.link(ctx.Node(), e.node)
		rctx := ctx.OnNode(e.node)
		m.transfer(ctx, rctx, link, m.sizer.Size(args))
		res, err := e.class.Dispatch(rctx, obj, method, args)
		m.transfer(rctx, ctx, link, m.replySize(void, res))
		return res, err
	}
	if m.oneway[method] {
		m.send(ctx, e, obj, method, args, void, nil)
		return nil, nil
	}
	reply := ctx.NewChan(1)
	m.send(ctx, e, obj, method, args, void, reply)
	v, _ := reply.Recv(ctx)
	return v.(*Completion).Reclaim(ctx)
}

// InvokeAsync implements AsyncInvoker: the caller pays only the request's
// sender-side costs, then the call travels to the object's serve loop, which
// executes calls in arrival order and puts each reply on done. A one-way
// method has no reply: its window slot frees at once (the send cost is the
// only throttle) and Join covers the message in flight.
func (m *simMW) InvokeAsync(ctx exec.Context, obj any, method string, args []any, void bool, done exec.Chan) {
	e, err := m.entryOf(m.MiddlewareName(), method, obj)
	if err != nil {
		done.Send(ctx, &Completion{Err: err})
		return
	}
	if m.oneway[method] {
		m.send(ctx, e, obj, method, args, void, nil)
		done.Send(ctx, &Completion{})
		return
	}
	m.send(ctx, e, obj, method, args, void, done)
}

// simCall is one request queued at an object's serve loop.
type simCall struct {
	method string
	args   []any
	void   bool
	from   exec.NodeID
	sentAt time.Duration
	size   int
	done   exec.Chan // the caller's reply channel; nil for a one-way message
}

// send pays a request's sender-side costs and queues it at obj's serve loop,
// spawning the loop on first use. A nil done makes it a one-way message,
// which Join waits for.
func (m *simMW) send(ctx exec.Context, e *exportEntry, obj any, method string, args []any, void bool, done exec.Chan) {
	size := m.sizer.Size(args)
	ctx.Compute(m.links.link(ctx.Node(), e.node).SendCPU(size))
	m.stats.count(1, int64(size))
	m.mu.Lock()
	if done == nil {
		if m.wg == nil {
			m.wg = ctx.NewWaitGroup()
		}
		m.wg.Add(1)
		m.pending++
	}
	inbox, ok := m.inboxes[obj]
	if !ok {
		inbox = ctx.NewChan(1 << 16) // deep enough that no modelled sender waits on it
		m.inboxes[obj] = inbox
		ctx.SpawnDaemonOn(e.node, "serve:"+e.name, func(sctx exec.Context) {
			m.serve(sctx, e, obj, inbox)
		})
	}
	m.mu.Unlock()
	inbox.Send(ctx, &simCall{method: method, args: args, void: void,
		from: ctx.Node(), sentAt: ctx.Now(), size: size, done: done})
}

// serve is the server side of one object — the RMI skeleton draining its
// pipelined connection, the paper's Figure 15 MPP main loop. It takes the
// queued calls in send order and pays each one's arrival and dispatch at the
// object's node. A one-way message settles; any other call's reply goes to
// done as a Completion, which the caller (windowed, or a synchronous MPP
// call) reclaims. The loop never returns: the run's end unwinds it.
func (m *simMW) serve(sctx exec.Context, e *exportEntry, obj any, inbox exec.Chan) {
	for {
		v, _ := inbox.Recv(sctx)
		c := v.(*simCall)
		link := m.links.link(c.from, e.node)
		waitArrival(sctx, link, c.sentAt, c.size)
		res, err := e.class.Dispatch(sctx, obj, c.method, c.args)
		if c.done == nil {
			m.mu.Lock()
			m.pending--
			m.mu.Unlock()
			m.wg.Done()
			continue
		}
		size := m.replySize(c.void, res)
		sctx.Compute(link.SendCPU(size))
		m.stats.count(1, int64(size))
		c.done.Send(sctx, &Completion{
			Res: res, Err: err,
			sentAt: sctx.Now(), size: size, link: m.links.link(e.node, c.from),
		})
	}
}

// Join implements Joiner: one-way messages in flight count as pending work.
func (m *simMW) Join(ctx exec.Context) error {
	m.mu.Lock()
	wg := m.wg
	m.mu.Unlock()
	if wg != nil {
		wg.Wait(ctx)
	}
	return nil
}

// Quiet implements Joiner.
func (m *simMW) Quiet() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pending == 0
}
