package par

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"aspectpar/internal/clock"
	"aspectpar/internal/exec"
	"aspectpar/internal/rmi"
)

// NetRMI is the real-TCP distribution backend: a Middleware + asyncInvoker
// over package rmi's pipelined transport. Where the simulated middleware
// models a remote call's cost, NetRMI performs it — each placement node is an
// rmi.Node worker daemon (its own process, or an in-process loopback
// listener in tests) hosting its own woven domain, and calls cross the wire
// in the codec the connection opened with (binary unless WithCodec says
// otherwise).
//
// The seam is symmetric with the simulated middleware: the Distribution
// module, the Placement policies and the windowed farm dispatchers run
// unchanged. Two differences follow from process separation:
//
//   - ExportNew cannot run the local build closure remotely, so it ships the
//     construction joinpoint's arguments to the node's creation protocol
//     (rmi.CtlExportNew); the node's own domain runs the woven constructor
//     and NetRMI hands the caller a *netRef remote reference in place of the
//     object. Distribution advice redirects every call on the reference, so
//     core code never observes the substitution.
//   - Completions carry no reply-tail cost model (the wire time is real), so
//     Completion.Reclaim is free.
//
// Void invocations use the one-way windowed path (rmi.Stub.SendSeq under
// the client's ack-clocked flow-control window); their failures are gathered
// by Join, which the Distribution module exposes to Stack.Join.
//
// Every call — sync, windowed, void, export — takes one path, through the
// call journal (netfault.go); the FaultPolicy given at DialNet only decides
// what that path does when the transport fails: nothing (the zero policy:
// fail fast), or reconnect, replay and fail over.
//
// NetRMI drives real network I/O and blocks host goroutines, so it must run
// under the real exec backend (exec.Real) — never inside the virtual-time
// cluster.
type NetRMI struct {
	mwCore

	mu       sync.Mutex
	addrs    map[exec.NodeID]string
	peers    map[exec.NodeID]*netPeer
	cordoned map[exec.NodeID]bool
	closed   bool

	// prefix namespaces every export name (a pooled driver's tenant
	// prefix, allocated by the registry): "" — the static path — keeps
	// names bit-identical to pre-pool behaviour.
	prefix string

	// faults is the call journal every call goes through (netfault.go): it
	// knows where each exported object lives and which calls are unsettled,
	// and its FaultPolicy decides what a transport failure does to them —
	// fail them fast (the zero policy) or recover.
	faults *netFaults

	// clk is the middleware's time source: RTT stamps, reconnect backoffs
	// and export-retry graces ride it. clock.Real() unless WithNetClock says
	// otherwise; fixed at DialNet, so dispatch paths read it without locking.
	clk clock.Clock

	// codec is the frame codec of every node connection (nil keeps
	// rmi.Dial's default, binary); streams is the per-peer
	// multiplexing width (≤1 keeps the single FIFO lane). Both are fixed at
	// DialNet, before any connection.
	codec   rmi.Codec
	streams int

	// topo is the installed pipeline topology (topology.go); topoVersion
	// orders its pushes across re-installs. Guarded by mu.
	topo        *netTopo
	topoVersion int64
}

// netPeer is one connected worker node: the pipelined client plus its
// control stub and the round-robin cursor of stream assignment (objects
// exported to this node spread across streams 1..streams).
type netPeer struct {
	client     *rmi.Client
	ctl        *rmi.Stub
	nextStream uint32
}

// netRef is the client-side remote reference NetRMI returns from ExportNew:
// the placed object lives in the node's process, and this token stands in
// for it in the caller's woven world. Method calls on it are redirected by
// distribution advice; it must never reach a method body.
type netRef struct {
	Name string
	Node exec.NodeID
}

// String renders the reference for diagnostics.
func (r *netRef) String() string { return fmt.Sprintf("netref(%s@node%d)", r.Name, r.Node) }

// NetAddressTable builds a node address table from an ordered address list:
// entry i serves exec.NodeID(i).
func NetAddressTable(addrs ...string) map[exec.NodeID]string {
	table := make(map[exec.NodeID]string, len(addrs))
	for i, a := range addrs {
		table[exec.NodeID(i)] = a
	}
	return table
}

// Nodes returns the configured node count (the placement universe). The
// table is mutable under a pool (join/leave), so the read is guarded like
// every other table access.
func (m *NetRMI) Nodes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.addrs)
}

// addNode extends the address table with a freshly joined daemon and
// returns its node ID (the lowest unused one). The connection is dialled
// lazily, on the first placement or call. Adding an address that is already
// in the table returns its existing ID.
func (m *NetRMI) addNode(addr string) exec.NodeID {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := exec.NodeID(0)
	for n, a := range m.addrs {
		if a == addr {
			return n
		}
		if n >= next {
			next = n + 1
		}
	}
	m.addrs[next] = addr
	return next
}

// setCordon marks (or clears) a node as cordoned: cordoned nodes receive no
// new placements — live placement policies and the fault layer's failover
// target scan both skip them — while their established objects keep
// serving until a drain moves them.
func (m *NetRMI) setCordon(node exec.NodeID, cordoned bool) {
	m.mu.Lock()
	if cordoned {
		m.cordoned[node] = true
	} else {
		delete(m.cordoned, node)
	}
	m.mu.Unlock()
}

// isCordoned reports whether node is cordoned.
func (m *NetRMI) isCordoned(node exec.NodeID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cordoned[node]
}

// eligibleIDs returns the non-cordoned node IDs in ascending order — the
// universe live placements select from.
func (m *NetRMI) eligibleIDs() []exec.NodeID {
	m.mu.Lock()
	ids := make([]exec.NodeID, 0, len(m.addrs))
	for n := range m.addrs {
		if !m.cordoned[n] {
			ids = append(ids, n)
		}
	}
	m.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// nodeIDs returns the configured node IDs in ascending order — the failover
// target scan order.
func (m *NetRMI) nodeIDs() []exec.NodeID {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]exec.NodeID, 0, len(m.addrs))
	for n := range m.addrs {
		ids = append(ids, n)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// FaultStats reports what recovery did (all zero under the fail-fast policy,
// which recovers nothing).
func (m *NetRMI) FaultStats() FaultStats { return m.faults.stats() }

// MiddlewareName implements Middleware.
func (m *NetRMI) MiddlewareName() string { return "netrmi" }

// peer returns node's connection, dialling and resolving the control stub on
// first use. The dial happens outside the middleware lock: a slow or dead
// peer must not stall operations against the healthy ones (nor block Close).
func (m *NetRMI) peer(node exec.NodeID) (*netPeer, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, rmi.ErrClosed
	}
	if p, ok := m.peers[node]; ok {
		m.mu.Unlock()
		return p, nil
	}
	addr, ok := m.addrs[node]
	have := len(m.addrs)
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("par: netrmi has no address for node %d (have %d nodes)", node, have)
	}
	// Every dial knob is carried in options, so the connection is fully
	// configured before its first frame: the middleware clock (reconnect
	// backoffs ride it), the codec, and under a policy that replays the
	// session identity (the server's dedupe key, surviving reconnects; Dial
	// handshakes it, pinning the session to the node's epoch) plus the
	// policy's reconnect schedule. Fail-fast never replays, so it sends no
	// tag and the node tracks nothing for it.
	dialOpts := []rmi.Option{rmi.WithClock(m.clk)}
	if m.codec != nil {
		dialOpts = append(dialOpts, rmi.WithCodec(m.codec))
	}
	tracked := m.faults.policy.Enabled
	if tracked {
		dialOpts = append(dialOpts,
			rmi.WithSession(m.faults.sessionID(node)),
			rmi.WithReconnect(m.faults.policy.Reconnect))
	}
	client, err := rmi.Dial(addr, dialOpts...)
	if err != nil {
		return nil, fmt.Errorf("par: netrmi node %d: %w", node, err)
	}
	ctl, err := client.Lookup(rmi.ControlName)
	if err != nil {
		client.Close()
		return nil, fmt.Errorf("par: %s is not an rmi.Node (no control servant): %w", addr, err)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		client.Close()
		return nil, rmi.ErrClosed
	}
	if p, ok := m.peers[node]; ok {
		// A concurrent dial won the insert; keep the established peer.
		m.mu.Unlock()
		client.Close()
		return p, nil
	}
	p := &netPeer{client: client, ctl: ctl}
	m.peers[node] = p
	m.mu.Unlock()
	return p, nil
}

// assignStream picks the dispatch stream for the next object exported to
// node: round-robin over 1..streams when multiplexing is on, 0 (the shared
// FIFO lane) otherwise. Per-object assignment preserves each object's call
// order — its calls all ride one stream's FIFO seq space — while objects on
// different streams stop head-of-line-blocking each other.
func (m *NetRMI) assignStream(node exec.NodeID) uint32 {
	if m.streams <= 1 {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peers[node]
	if p == nil {
		return 1
	}
	p.nextStream++
	return (p.nextStream-1)%uint32(m.streams) + 1
}

// clientOf returns node's established client, or nil — the recovery loop's
// reconnect handle.
func (m *NetRMI) clientOf(node exec.NodeID) *rmi.Client {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p := m.peers[node]; p != nil {
		return p.client
	}
	return nil
}

// ExportNew implements Middleware: it runs the creation protocol against the
// node's daemon — ship class name, object name and constructor arguments;
// the node's own domain executes the woven constructor — and returns a
// *netRef remote reference. The build closure is not used: the constructor
// body must run in the remote process, which is exactly what separates this
// backend from the in-process simulated middleware. Under an enabled fault
// policy the protocol is retried through recovery — surviving a node crash
// mid-placement — and may land on a failover node when the requested one is
// gone for good.
func (m *NetRMI) ExportNew(ctx exec.Context, name string, node exec.NodeID, class *Class,
	args []any, build func(rctx exec.Context) (any, error)) (any, error) {
	for _, sample := range class.wireTypes() {
		rmi.RegisterType(sample)
	}
	m.mu.Lock()
	name = m.prefix + name
	m.mu.Unlock()
	ctlArgs := append([]any{class.name, name}, args...)
	stub, node, err := m.faults.exportNew(node, name, ctlArgs)
	if err != nil {
		return nil, fmt.Errorf("par: netrmi export %s at node %d: %w", name, node, err)
	}
	m.stats.count(2, int64(m.sizer.Size(ctlArgs)+replyFloor))
	ref := &netRef{Name: name, Node: node}
	if err := m.reg.add(ref, &exportEntry{name: name, node: node, class: class}); err != nil {
		return nil, err
	}
	// Bind the object to its dispatch stream: with multiplexing on, objects
	// placed at the same node spread round-robin over streams 1..n, so a slow
	// call on one no longer head-of-line-blocks the others, while each
	// object's own calls keep their FIFO order on its stream. The journal
	// records the stub with the re-creation recipe: constructor arguments
	// now, applied calls as they settle — what reincarnation and failover
	// replay.
	stream := m.assignStream(node)
	m.faults.trackExport(ref, class, args, stub.OnStream(stream), stream)
	return ref, nil
}

// Invoke implements Middleware. The call is journaled; a value-returning
// call blocks on its final outcome — through recovery, if the policy has any
// and the transport fails under it. Void calls take the one-way windowed
// path: Invoke returns once the request is written (bounded by the client's
// flow-control window) and their failures, remote and transport alike,
// surface collectively in Join — the semantics the MPP twin gives its one-way
// methods.
func (m *NetRMI) Invoke(ctx exec.Context, obj any, method string, args []any, void bool) ([]any, error) {
	ref, ok := obj.(*netRef)
	if !ok {
		return nil, errUnexported(method)
	}
	call := &netCall{fa: m.faults, ref: ref, method: method, args: args, void: void}
	if void {
		m.faults.submit(call)
		return nil, nil
	}
	call.reply.arm()
	m.faults.submit(call)
	o := call.reply.wait()
	return o.res, o.err
}

// InvokeAsync implements asyncInvoker: the call is journaled and pipelined
// onto the node's connection, and the completion is delivered when it finally
// executed — when the in-order response arrives or, under a recovering
// policy, possibly after a replay on another incarnation. Void calls use the
// one-way path and complete at send, exactly like the MPP twin's one-way
// methods (the ack-clocked send window is the throttle; failures surface in
// Join). Non-void calls deliver through the transport's callback path: the
// completion is built on the connection's reader goroutine and handed to the
// worker's buffered done channel — no future and no per-call goroutine, which
// used to dominate the windowed hot path's allocations.
func (m *NetRMI) InvokeAsync(ctx exec.Context, obj any, method string, args []any, void bool, done exec.Chan) {
	ref, ok := obj.(*netRef)
	if !ok {
		done.Send(ctx, &Completion{err: errUnexported(method)})
		return
	}
	call := &netCall{fa: m.faults, ref: ref, method: method, args: args, void: void}
	if void {
		m.faults.submit(call)
		done.Send(ctx, &Completion{})
		return
	}
	call.done, call.ctx = done, ctx
	m.faults.submit(call)
}

// parkStream is the dispatch stream InvokeParked rides on every peer
// connection. Object streams are assigned from 1 upwards, so nothing else is
// ever queued on this lane.
const parkStream = ^uint32(0)

// InvokeParked performs one synchronous call of a method that may park at the
// object — block there until an event arrives, like a long-poll read — and so
// must not share a dispatch lane with ordinary traffic: the node would run
// the object's other calls (or, on stream 0, every request of the connection)
// only after the wait ended. The call rides the reserved parkStream of the
// connection to obj's current placement, resolved afresh on each call, so it
// follows the object through reincarnation, failover and drain.
//
// It is never journaled or replayed, whatever the fault policy: a transport
// failure — including a recovery reconnecting underneath it — simply returns
// the error. The method must therefore be safe to repeat.
func (m *NetRMI) InvokeParked(obj any, method string, args ...any) ([]any, error) {
	stub, err := m.faults.stubOf(method, obj)
	if err != nil {
		return nil, err
	}
	res, err := stub.OnStream(parkStream).Invoke(method, args...)
	if err == nil {
		m.stats.count(2, int64(m.sizer.Size(args)+approxReplySize(res)))
	}
	return res, err
}

// approxReplySize estimates a reply's wire size without re-encoding it:
// the acknowledgement floor plus four bytes per []int32 payload element.
// Exact sizing (sizer.Size) gob-encodes the value, which is too expensive
// for the client's in-order reader.
func approxReplySize(res []any) int {
	return replyFloor + 4*payloadElems(res)
}

// Reset asks every configured node to unbind its placed objects (connecting
// as needed), so a long-running daemon can serve successive runs with fresh
// "PS<n>" names. Drivers targeting shared daemons call it before placing.
// Reset first invalidates the journal generation — the export records are
// forgotten, and an in-flight recovery abandons instead of resurrecting
// pre-reset exports — and afterwards a session-tracking policy re-handshakes
// each session, since the node's reset rotates its epoch (the server-side
// half of the same guard).
func (m *NetRMI) Reset() error {
	pol := m.faults.policy
	m.faults.invalidate(&faultError{Err: errMWReset})
	m.mu.Lock()
	prefix := m.prefix
	// The nodes drop this namespace's hop tables with its bindings, so the
	// driver-side plan dies with them.
	m.topo = nil
	m.mu.Unlock()
	// A namespaced driver resets only its own bindings (the node neither
	// unbinds other tenants' objects nor rotates the shared epoch); the
	// un-namespaced form keeps the whole-node reset.
	resetArgs := []any{}
	if prefix != "" {
		resetArgs = []any{prefix}
	}
	var errs []error
	ok := 0
	for _, node := range m.nodeIDs() {
		p, err := m.peer(node)
		if err == nil {
			_, err = p.ctl.Invoke(rmi.CtlReset, resetArgs...)
		}
		if err == nil && pol.Enabled {
			_, err = p.client.Handshake()
		}
		if err != nil {
			errs = append(errs, err)
			continue
		}
		ok++
	}
	if pol.Enabled && ok > 0 {
		// Degraded start: a member that is dead or partitioned before the
		// first request must not abort the run when the policy allows
		// failover — placements that would have landed on it move to a
		// survivor at creation time instead (see exportNew). Skipping its
		// binding reset is safe: nothing is invoked on a node this driver
		// cannot reach, and ExportNew rebinds any name it later reuses.
		return nil
	}
	return errors.Join(errs...)
}

// Join implements joiner: it waits for the journal to settle — every call
// acknowledged, replayed, failed over or failed; recoveries
// finished — which drains every connection's one-way window, and returns the
// gathered failures of the void traffic: remote errors, the calls lost with a
// dropped peer, a noFailoverError when an object could not be re-homed
// anywhere. Stack.Join thereby observes the void traffic this middleware
// still has in flight.
func (m *NetRMI) Join(ctx exec.Context) error {
	// With a pipeline topology installed the driver's drained windows are
	// only the first hop: run the distributed quiescence protocol over the
	// node-side forward lanes (see topology.go).
	return errors.Join(m.faults.join(), m.topoJoin(ctx))
}

// Quiet implements joiner.
func (m *NetRMI) Quiet() bool { return m.topoQuiet() && m.faults.quiet() }

// Close closes every node connection. Calls in flight resolve with
// rmi.ErrClosed.
func (m *NetRMI) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	peers := make([]*netPeer, 0, len(m.peers))
	for _, p := range m.peers {
		peers = append(peers, p)
	}
	m.mu.Unlock()
	m.faults.invalidate(rmi.ErrClosed)
	var errs []error
	for _, p := range peers {
		if err := p.client.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// HostClass adapts a woven class to a node's Servant interface: the server
// side of the real middleware. Construction runs the class's woven
// construction site (so node-local modules — metering, say — apply) and
// dispatch re-enters the node domain's weaver with markRemote set, exactly
// like the simulated middleware's serve loop.
func HostClass(n *rmi.Node, class *Class) {
	n.Host(class.name, classServant{class})
}

type classServant struct{ c *Class }

func (s classServant) New(ctx exec.Context, args []any) (any, error) {
	return s.c.New(ctx, args...)
}

func (s classServant) Invoke(ctx exec.Context, obj any, method string, args []any) ([]any, error) {
	return s.c.dispatch(ctx, obj, method, args)
}

func (s classServant) WireTypes() []any { return s.c.wireTypes() }

// ForwardRule implements rmi.RuleForwarder: the node's forward lane derives
// peer-to-peer pipeline hops through the class's named rules.
func (s classServant) ForwardRule(rule string) (func(stage int, results, args []any) []any, bool) {
	return s.c.forwardRule(rule)
}
