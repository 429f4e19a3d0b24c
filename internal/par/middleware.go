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
// interface is that seam. Implementations come in two families: the
// simulated twins (NewSimRMI, NewSimMPP), which model cost on the virtual
// cluster, and the real backend (DialNet), which ships calls over TCP to
// rmi.Node worker processes.
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
		if arrival := c.sentAt + c.link.WireTime(c.size); arrival > ctx.Now() {
			ctx.Sleep(arrival - ctx.Now())
		}
		ctx.Compute(c.link.RecvCPU(c.size))
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
	inbox exec.Chan // MPP only
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

// simLinks is the link-profile pair of the simulated middlewares: the remote
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
// the receive/unmarshal CPU to the receiving activity. Both simulated
// middlewares' dispatch loops share it.
func waitArrival(sctx exec.Context, link simnet.LinkProfile, sentAt time.Duration, size int) {
	if arrival := sentAt + link.WireTime(size); arrival > sctx.Now() {
		sctx.Sleep(arrival - sctx.Now())
	}
	sctx.Compute(link.RecvCPU(size))
}

// --- Simulated Java RMI ----------------------------------------------------

// simRMI models Java RMI on the simulated cluster: synchronous
// request/reply, heavy per-call software overhead, object serialisation
// costs on both sides. The woven server side re-enters the domain weaver
// (Class.Dispatch), exactly like an RMI skeleton invoking the woven method.
type simRMI struct {
	mwCore
	links simLinks
	cl    *cluster.Cluster

	mu      sync.Mutex
	inboxes map[any]exec.Chan // per-object async dispatch queues (lazy)
}

// NewSimRMI returns an RMI middleware over the simulated cluster.
func NewSimRMI(cl *cluster.Cluster) Middleware {
	return &simRMI{
		mwCore:  newMWCore(),
		links:   newSimLinks(simnet.RMIProfile()),
		cl:      cl,
		inboxes: make(map[any]exec.Chan),
	}
}

func (m *simRMI) MiddlewareName() string { return "rmi" }

// oneWay models the transfer of one message: sender-side CPU, wire, and
// receiver-side CPU charged to rctx's node.
func (m *simRMI) oneWay(ctx, rctx exec.Context, link simnet.LinkProfile, size int) {
	ctx.Compute(link.SendCPU(size))
	ctx.Sleep(link.WireTime(size))
	rctx.Compute(link.RecvCPU(size))
	m.stats.count(1, int64(size))
}

func (m *simRMI) ExportNew(ctx exec.Context, name string, node exec.NodeID, class *Class,
	args []any, build func(rctx exec.Context) (any, error)) (any, error) {
	rctx := ctx.OnNode(node)
	link := m.links.link(ctx.Node(), node)
	// Creation protocol: contact the remote JVM and the name server, build
	// there, receive the remote reference back.
	m.oneWay(ctx, rctx, link, 64)
	obj, err := build(rctx)
	if err != nil {
		return nil, err
	}
	m.oneWay(rctx, ctx, link, 64)
	if err := m.reg.add(obj, &exportEntry{name: name, node: node, class: class}); err != nil {
		return nil, err
	}
	return obj, nil
}

func (m *simRMI) Invoke(ctx exec.Context, obj any, method string, args []any, void bool) ([]any, error) {
	e, err := m.entryOf("rmi", method, obj)
	if err != nil {
		return nil, err
	}
	link := m.links.link(ctx.Node(), e.node)
	rctx := ctx.OnNode(e.node)

	// Request: marshal, wire, unmarshal, dispatch through the woven server.
	m.oneWay(ctx, rctx, link, m.sizer.Size(args))
	res, err := e.class.Dispatch(rctx, obj, method, args)
	// Reply: RMI is synchronous even for void methods, but a void call
	// ships only an acknowledgement.
	m.oneWay(rctx, ctx, link, m.replySize(void, res))
	return res, err
}

// rmiCall is one pipelined asynchronous invocation in an object's dispatch
// queue.
type rmiCall struct {
	method string
	args   []any
	void   bool
	from   exec.NodeID
	sentAt time.Duration
	size   int
	done   exec.Chan
}

// InvokeAsync implements AsyncInvoker: the caller pays only the request
// marshalling cost, then the call travels to a per-object dispatch loop at
// the object's node (the skeleton draining one pipelined connection), which
// executes calls in arrival order and ships acknowledgements back. The
// caller reclaims the completion — and its reply-tail costs — from done.
func (m *simRMI) InvokeAsync(ctx exec.Context, obj any, method string, args []any, void bool, done exec.Chan) {
	e, err := m.entryOf("rmi", method, obj)
	if err != nil {
		done.Send(ctx, &Completion{Err: err})
		return
	}
	link := m.links.link(ctx.Node(), e.node)
	size := m.sizer.Size(args)
	ctx.Compute(link.SendCPU(size))
	m.stats.count(1, int64(size))
	m.inbox(ctx, e, obj).Send(ctx, &rmiCall{
		method: method, args: args, void: void,
		from: ctx.Node(), sentAt: ctx.Now(), size: size, done: done,
	})
}

// inbox returns obj's asynchronous dispatch queue, spawning its server-side
// dispatch loop on first use.
func (m *simRMI) inbox(ctx exec.Context, e *exportEntry, obj any) exec.Chan {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch, ok := m.inboxes[obj]
	if !ok {
		ch = ctx.NewChan(1 << 16)
		m.inboxes[obj] = ch
		ctx.SpawnDaemonOn(e.node, "rmi-dispatch:"+e.name, func(sctx exec.Context) {
			m.serveAsync(sctx, e, obj, ch)
		})
	}
	return ch
}

// serveAsync is the server side of the pipelined protocol: one loop per
// object receives the queued calls in order, pays arrival and dispatch
// costs at the object's node, and acknowledges each call to its sender.
func (m *simRMI) serveAsync(sctx exec.Context, e *exportEntry, obj any, inbox exec.Chan) {
	for {
		v, ok := inbox.Recv(sctx)
		if !ok {
			return
		}
		call := v.(*rmiCall)
		link := m.links.link(call.from, e.node)
		// The request is still on the wire until sentAt + wire time.
		waitArrival(sctx, link, call.sentAt, call.size)
		res, err := e.class.Dispatch(sctx, obj, call.method, call.args)
		replySize := m.replySize(call.void, res)
		sctx.Compute(link.SendCPU(replySize))
		m.stats.count(1, int64(replySize))
		call.done.Send(sctx, &Completion{
			Res: res, Err: err,
			sentAt: sctx.Now(), size: replySize, link: m.links.link(e.node, call.from),
		})
	}
}

// --- Simulated MPP (message passing) ---------------------------------------

// simMPP models the paper's Java MPP library (nio-based message passing):
// one-way sends with thin framing, a per-object server loop receiving
// messages and dispatching them (the paper's Figure 15 main loop). Methods
// listed as one-way return immediately after the send; others get a
// request/reply conversation over the same transport.
type simMPP struct {
	mwCore
	links  simLinks
	cl     *cluster.Cluster
	oneway map[string]bool

	mu      sync.Mutex
	wg      exec.WaitGroup
	pending int
}

// NewSimMPP returns an MPP middleware over the simulated cluster. Methods
// named in oneWayMethods are fire-and-forget sends (the paper's
// comm.send of filter packs); all other methods use request/reply.
func NewSimMPP(cl *cluster.Cluster, oneWayMethods ...string) Middleware {
	ow := make(map[string]bool, len(oneWayMethods))
	for _, m := range oneWayMethods {
		ow[m] = true
	}
	return &simMPP{
		mwCore: newMWCore(),
		links:  newSimLinks(simnet.MPPProfile()),
		cl:     cl,
		oneway: ow,
	}
}

func (m *simMPP) MiddlewareName() string { return "mpp" }

// mppMsg is one message in an object's inbox.
type mppMsg struct {
	method string
	args   []any
	from   exec.NodeID
	sentAt time.Duration
	size   int
	void   bool
	reply  exec.Chan // request/reply conversations (nil otherwise)
	done   exec.Chan // windowed asynchronous invocations (nil otherwise)
}

type mppReply struct {
	res    []any
	err    error
	from   exec.NodeID
	sentAt time.Duration
	size   int
}

func (m *simMPP) ExportNew(ctx exec.Context, name string, node exec.NodeID, class *Class,
	args []any, build func(rctx exec.Context) (any, error)) (any, error) {
	rctx := ctx.OnNode(node)
	link := m.links.link(ctx.Node(), node)
	// Creation control messages, as in RMI but over the cheaper transport.
	ctx.Compute(link.SendCPU(64))
	ctx.Sleep(link.WireTime(64))
	rctx.Compute(link.RecvCPU(64))
	m.stats.count(2, 128)
	obj, err := build(rctx)
	if err != nil {
		return nil, err
	}
	ctx.Sleep(link.WireTime(64)) // creation acknowledgement
	e := &exportEntry{name: name, node: node, class: class, inbox: ctx.NewChan(1 << 16)}
	if err := m.reg.add(obj, e); err != nil {
		return nil, err
	}
	// The paper's Figure 15: the server main loop receiving messages and
	// invoking the method on the local object.
	ctx.SpawnDaemonOn(node, "mpp-server:"+name, func(sctx exec.Context) {
		m.serve(sctx, e, obj)
	})
	return obj, nil
}

func (m *simMPP) serve(sctx exec.Context, e *exportEntry, obj any) {
	for {
		v, ok := e.inbox.Recv(sctx)
		if !ok {
			return
		}
		msg := v.(*mppMsg)
		link := m.links.link(msg.from, e.node)
		// The message is still on the wire until sentAt + wire time.
		waitArrival(sctx, link, msg.sentAt, msg.size)
		res, err := e.class.Dispatch(sctx, obj, msg.method, msg.args)
		switch {
		case msg.done != nil:
			// Windowed asynchronous call: acknowledge to the sender's
			// completion channel over the same transport.
			size := m.replySize(msg.void, res)
			sctx.Compute(link.SendCPU(size))
			m.stats.count(1, int64(size))
			msg.done.Send(sctx, &Completion{
				Res: res, Err: err,
				sentAt: sctx.Now(), size: size, link: m.links.link(e.node, msg.from),
			})
		case msg.reply != nil:
			size := m.replySize(msg.void, res)
			sctx.Compute(link.SendCPU(size))
			m.stats.count(1, int64(size))
			msg.reply.Send(sctx, &mppReply{res: res, err: err, from: e.node, sentAt: sctx.Now(), size: size})
		default:
			m.settle()
		}
	}
}

func (m *simMPP) Invoke(ctx exec.Context, obj any, method string, args []any, void bool) ([]any, error) {
	e, err := m.entryOf("mpp", method, obj)
	if err != nil {
		return nil, err
	}
	link := m.links.link(ctx.Node(), e.node)
	size := m.sizer.Size(args)
	ctx.Compute(link.SendCPU(size))
	m.stats.count(1, int64(size))

	msg := &mppMsg{method: method, args: args, from: ctx.Node(), sentAt: ctx.Now(), size: size, void: void}
	if m.oneway[method] {
		m.track(ctx)
		e.inbox.Send(ctx, msg)
		return nil, nil
	}
	msg.reply = ctx.NewChan(1)
	e.inbox.Send(ctx, msg)
	v, _ := msg.reply.Recv(ctx)
	rep := v.(*mppReply)
	rlink := m.links.link(rep.from, ctx.Node())
	waitArrival(ctx, rlink, rep.sentAt, rep.size)
	return rep.res, rep.err
}

// InvokeAsync implements AsyncInvoker. Methods configured as one-way keep
// their fire-and-forget transport — there is no acknowledgement, so the
// window slot frees immediately (the send cost is the only throttle) and the
// middleware's Join covers the in-flight message. Request/reply methods get
// the windowed protocol: the server's per-object loop acknowledges each call
// to the sender's completion channel.
func (m *simMPP) InvokeAsync(ctx exec.Context, obj any, method string, args []any, void bool, done exec.Chan) {
	e, err := m.entryOf("mpp", method, obj)
	if err != nil {
		done.Send(ctx, &Completion{Err: err})
		return
	}
	link := m.links.link(ctx.Node(), e.node)
	size := m.sizer.Size(args)
	ctx.Compute(link.SendCPU(size))
	m.stats.count(1, int64(size))
	msg := &mppMsg{method: method, args: args, from: ctx.Node(), sentAt: ctx.Now(), size: size, void: void}
	if m.oneway[method] {
		m.track(ctx)
		e.inbox.Send(ctx, msg)
		done.Send(ctx, &Completion{})
		return
	}
	msg.done = done
	e.inbox.Send(ctx, msg)
}

func (m *simMPP) track(ctx exec.Context) {
	m.mu.Lock()
	if m.wg == nil {
		m.wg = ctx.NewWaitGroup()
	}
	m.wg.Add(1)
	m.pending++
	m.mu.Unlock()
}

func (m *simMPP) settle() {
	m.mu.Lock()
	m.pending--
	wg := m.wg
	m.mu.Unlock()
	wg.Done()
}

// Join implements Joiner: one-way messages in flight count as pending work.
func (m *simMPP) Join(ctx exec.Context) error {
	m.mu.Lock()
	wg := m.wg
	m.mu.Unlock()
	if wg != nil {
		wg.Wait(ctx)
	}
	return nil
}

// Quiet implements Joiner.
func (m *simMPP) Quiet() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pending == 0
}
