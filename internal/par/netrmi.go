package par

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"aspectpar/internal/clock"
	"aspectpar/internal/exec"
	"aspectpar/internal/rmi"
)

// NetRMI is the real-TCP distribution backend: a Middleware + AsyncInvoker
// over package rmi's pipelined transport. Where the simulated twins model a
// remote call's cost, NetRMI performs it — each placement node is an
// rmi.Node worker daemon (its own process, or an in-process loopback
// listener in tests) hosting its own woven domain, and calls cross the wire
// gob-encoded.
//
// The seam is symmetric with the simulated middlewares: the Distribution
// module, the Placement policies and the windowed farm dispatchers run
// unchanged. Two differences follow from process separation:
//
//   - ExportNew cannot run the local build closure remotely, so it ships the
//     construction joinpoint's arguments to the node's creation protocol
//     (rmi.CtlExportNew); the node's own domain runs the woven constructor
//     and NetRMI hands the caller a *NetRef remote reference in place of the
//     object. Distribution advice redirects every call on the reference, so
//     core code never observes the substitution.
//   - Completions carry no reply-tail cost model (the wire time is real), so
//     Completion.Reclaim is free.
//
// Void invocations use the one-way windowed path (rmi.Stub.Send under the
// client's ack-clocked flow-control window); their remote failures are
// gathered by Join, which the Distribution module exposes to Stack.Join.
//
// NetRMI drives real network I/O and blocks host goroutines, so it must run
// under the real exec backend (exec.Real) — never inside the virtual-time
// cluster.
type NetRMI struct {
	mwCore

	mu       sync.Mutex
	addrs    map[exec.NodeID]string
	peers    map[exec.NodeID]*netPeer
	stubs    map[any]*rmi.Stub
	cordoned map[exec.NodeID]bool
	closed   bool

	// prefix namespaces every export name (a pooled driver's tenant
	// prefix, allocated by the registry): "" — the static path — keeps
	// names bit-identical to pre-pool behaviour.
	prefix string

	// faults is the optional fault-tolerance subsystem (netfault.go): nil —
	// the zero FaultPolicy — keeps every dispatch path bit-identical to the
	// fail-fast behaviour.
	faults *netFaults

	// clk is the middleware's time source: RTT stamps, reconnect backoffs
	// and export-retry graces ride it. clock.Real() by default (see
	// SetClock); fixed before the first dial, so dispatch paths read it
	// without locking.
	clk clock.Clock

	// codec is the frame codec offered to every node at handshake (nil
	// keeps rmi.Dial's default, binary); streams is the per-peer multiplexing width (≤1 keeps the
	// single FIFO lane). Both are fixed at DialNet, before any connection.
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

// NetRef is the client-side remote reference NetRMI returns from ExportNew:
// the placed object lives in the node's process, and this token stands in
// for it in the caller's woven world. Method calls on it are redirected by
// distribution advice; it must never reach a method body.
type NetRef struct {
	Name string
	Node exec.NodeID
}

// String renders the reference for diagnostics.
func (r *NetRef) String() string { return fmt.Sprintf("netref(%s@node%d)", r.Name, r.Node) }

// NewNetRMI returns a middleware over the given node address table:
// addrs[n] is the TCP address of the rmi.Node daemon playing cluster node n.
// Placement policies select among exactly these node IDs. Connections are
// dialled lazily, on first placement or call per node.
func NewNetRMI(addrs map[exec.NodeID]string) *NetRMI {
	table := make(map[exec.NodeID]string, len(addrs))
	for n, a := range addrs {
		table[n] = a
	}
	return &NetRMI{
		mwCore:   newMWCore(),
		addrs:    table,
		peers:    make(map[exec.NodeID]*netPeer),
		stubs:    make(map[any]*rmi.Stub),
		cordoned: make(map[exec.NodeID]bool),
		clk:      clock.Real(),
	}
}

// SetClock installs the middleware's time source (nil selects the wall
// clock): every reconnect backoff, export-retry grace and RTT stamp flows
// through it, which is what lets the chaos harness run failure schedules on
// virtual time. Like SetFaultPolicy, it must be called before the first
// placement or call; installing a clock under sessions established on
// another one panics.
//
// Deprecated: pass WithNetClock to DialNet instead — the constructor fixes
// every knob before the first dial, so the ordering rule disappears.
func (m *NetRMI) SetClock(clk clock.Clock) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.peers) > 0 {
		panic("par: SetClock after peers were dialled")
	}
	m.clk = clock.Or(clk)
}

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

// AddNode extends the address table with a freshly joined daemon and
// returns its node ID (the lowest unused one). The connection is dialled
// lazily, like every configured node's. Adding an address that is already
// in the table returns its existing ID.
func (m *NetRMI) AddNode(addr string) exec.NodeID {
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

// SetCordon marks (or clears) a node as cordoned: cordoned nodes receive no
// new placements — live placement policies and the fault layer's failover
// target scan both skip them — while their established objects keep
// serving until a drain moves them.
func (m *NetRMI) SetCordon(node exec.NodeID, cordoned bool) {
	m.mu.Lock()
	if cordoned {
		m.cordoned[node] = true
	} else {
		delete(m.cordoned, node)
	}
	m.mu.Unlock()
}

// Cordoned reports whether node is cordoned.
func (m *NetRMI) Cordoned(node exec.NodeID) bool {
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

// SetNamespace installs the per-driver binding prefix applied to every
// export name (and used by Reset to scope itself to this driver's
// bindings). Must be set before the first placement; "" keeps the
// pre-pool, collision-prone global names.
func (m *NetRMI) SetNamespace(prefix string) {
	m.mu.Lock()
	m.prefix = prefix
	m.mu.Unlock()
}

// Drain proactively migrates node's exports and queued calls onto a
// surviving, non-cordoned node using the reincarnation/failover machinery,
// while the source node is still alive — the second half of cordon →
// drain → evict. It requires a fault policy (the machinery it reuses).
func (m *NetRMI) Drain(node exec.NodeID) error {
	fa := m.faults
	if fa == nil {
		return fmt.Errorf("par: netrmi drain of node %d needs a fault policy", node)
	}
	return fa.drainNode(node)
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

// SetFaultPolicy switches on the fault-tolerance subsystem (see FaultPolicy
// and netfault.go): journaled calls, reconnect/replay with session-epoch
// handshakes, and placement failover. It must be called before the first
// placement or call; enabling it on a middleware that has already dialled
// peers panics, because those sessions were established untracked.
//
// Deprecated: pass WithFaultPolicy to DialNet instead.
func (m *NetRMI) SetFaultPolicy(p FaultPolicy) {
	if !p.Enabled {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.peers) > 0 {
		panic("par: SetFaultPolicy after peers were dialled")
	}
	m.faults = newNetFaults(m, p)
}

// FaultStats reports what the fault-tolerance subsystem did (zero unless a
// FaultPolicy was enabled).
func (m *NetRMI) FaultStats() FaultStats {
	if m.faults == nil {
		return FaultStats{}
	}
	return m.faults.stats()
}

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
	// backoffs ride it), the negotiated codec, and in fault mode the
	// session identity (the server's dedupe key, surviving reconnects)
	// plus the policy's reconnect schedule.
	dialOpts := []rmi.Option{rmi.WithClock(m.clk)}
	if m.codec != nil {
		dialOpts = append(dialOpts, rmi.WithCodec(m.codec))
	}
	fa := m.faults
	if fa != nil {
		dialOpts = append(dialOpts,
			rmi.WithSession(fa.sessionID(node)),
			rmi.WithReconnect(fa.policy.Reconnect))
	}
	client, err := rmi.Dial(addr, dialOpts...)
	if err != nil {
		return nil, fmt.Errorf("par: netrmi node %d: %w", node, err)
	}
	if fa != nil && client.Epoch() == 0 {
		// The epoch handshake pins this session to the node incarnation.
		// Dial's codec negotiation is that same Hello and has recorded the
		// epoch already; only a client pinned to gob arrives here without one.
		if _, err := client.Handshake(); err != nil {
			client.Close()
			return nil, fmt.Errorf("par: netrmi node %d handshake: %w", node, err)
		}
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

// stubOf resolves the remote stub behind an exported reference.
func (m *NetRMI) stubOf(method string, obj any) (*rmi.Stub, error) {
	m.mu.Lock()
	stub, ok := m.stubs[obj]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("par: netrmi invoke on unexported object (%s)", method)
	}
	return stub, nil
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

// remap points an exported reference at a fresh incarnation: the stub (a
// new node, or the same node re-looked-up) and the registry placement, so
// Distribution.NodeOf — and the scheduler's placement-aware stealing it
// feeds — tracks the failover.
func (m *NetRMI) remap(ref *NetRef, stub *rmi.Stub, node exec.NodeID) {
	m.mu.Lock()
	m.stubs[ref] = stub
	m.mu.Unlock()
	m.reg.setNode(ref, node)
	// A re-homed reference may be a pipeline stage: the installed topology
	// now points a predecessor at a stale placement, so schedule a re-push.
	m.topoMarkDirty()
}

// ExportNew implements Middleware: it runs the creation protocol against the
// node's daemon — ship class name, object name and constructor arguments;
// the node's own domain executes the woven constructor — and returns a
// *NetRef remote reference. The build closure is not used: the constructor
// body must run in the remote process, which is exactly what separates this
// backend from the in-process twins.
func (m *NetRMI) ExportNew(ctx exec.Context, name string, node exec.NodeID, class *Class,
	args []any, build func(rctx exec.Context) (any, error)) (any, error) {
	for _, sample := range class.WireSamples() {
		rmi.RegisterType(sample)
	}
	m.mu.Lock()
	name = m.prefix + name
	m.mu.Unlock()
	ctlArgs := append([]any{class.Name(), name}, args...)
	var stub *rmi.Stub
	if fa := m.faults; fa != nil {
		// Fault mode: the creation protocol is session-tracked and retried
		// through recovery — surviving a node crash mid-placement — and may
		// land on a failover node when the requested one is gone for good.
		var err error
		stub, node, err = fa.exportNew(node, name, ctlArgs)
		if err != nil {
			return nil, fmt.Errorf("par: netrmi export %s at node %d: %w", name, node, err)
		}
	} else {
		p, err := m.peer(node)
		if err != nil {
			return nil, err
		}
		if _, err := p.ctl.Invoke(rmi.CtlExportNew, ctlArgs...); err != nil {
			return nil, fmt.Errorf("par: netrmi export %s at node %d: %w", name, node, err)
		}
		stub, err = p.client.Lookup(name)
		if err != nil {
			return nil, fmt.Errorf("par: netrmi export %s at node %d: %w", name, node, err)
		}
	}
	// Bind the object to its dispatch stream: with multiplexing on, objects
	// placed at the same node spread round-robin over streams 1..n, so a slow
	// call on one no longer head-of-line-blocks the others, while each
	// object's own calls keep their FIFO order on its stream.
	stream := m.assignStream(node)
	if stream != 0 {
		stub = stub.OnStream(stream)
	}
	m.stats.count(2, int64(m.sizer.Size(ctlArgs)+replyFloor))
	ref := &NetRef{Name: name, Node: node}
	if err := m.reg.add(ref, &exportEntry{name: name, node: node, class: class}); err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.stubs[ref] = stub
	m.mu.Unlock()
	if fa := m.faults; fa != nil {
		// Record the re-creation recipe: constructor arguments now, applied
		// calls as they settle — what reincarnation and failover replay.
		fa.trackExport(ref, class, args, stream)
	}
	return ref, nil
}

// Invoke implements Middleware. Void calls take the one-way windowed path:
// Send returns once the request is written (bounded by the client's
// flow-control window) and remote failures surface collectively in Join —
// the semantics the MPP twin gives its one-way methods. Value-returning
// calls are synchronous round trips. With a fault policy enabled, every
// call is journaled and a transport failure blocks the synchronous caller
// through recovery instead of failing it.
func (m *NetRMI) Invoke(ctx exec.Context, obj any, method string, args []any, void bool) ([]any, error) {
	if fa := m.faults; fa != nil {
		return fa.invokeSync(obj, method, args, void)
	}
	stub, err := m.stubOf(method, obj)
	if err != nil {
		return nil, err
	}
	reqSize := m.sizer.Size(args)
	if void {
		if err := stub.Send(method, args...); err != nil {
			return nil, err // nothing crossed the wire: no traffic to count
		}
		m.stats.count(2, int64(reqSize+replyFloor))
		return nil, nil
	}
	res, err := stub.Invoke(method, args...)
	m.stats.count(2, int64(reqSize+m.replySize(false, res)))
	return res, err
}

// InvokeAsync implements AsyncInvoker: the call is pipelined onto the node's
// connection and the completion is delivered when the in-order response
// arrives. Void calls use the one-way path and complete at send, exactly
// like the MPP twin's one-way methods (the ack-clocked send window is the
// throttle; failures surface in Join). Non-void calls deliver through the
// transport's callback path (rmi.Stub.InvokeCB): the completion is built on
// the connection's reader goroutine and handed to the worker's buffered
// done channel — no future and no per-call goroutine, which used to
// dominate the windowed hot path's allocations.
//
// Completions are stamped with the tuning signals the PR-4 controllers
// consume: the node-side service time travels back in the response, and the
// client-side round trip is measured here — so window-depth and pack-size
// autotuning engage over real TCP instead of holding their fixed knobs.
func (m *NetRMI) InvokeAsync(ctx exec.Context, obj any, method string, args []any, void bool, done exec.Chan) {
	if fa := m.faults; fa != nil {
		fa.invokeAsync(ctx, obj, method, args, void, done)
		return
	}
	stub, err := m.stubOf(method, obj)
	if err != nil {
		done.Send(ctx, &Completion{Err: err})
		return
	}
	reqSize := m.sizer.Size(args)
	if void {
		err := stub.Send(method, args...)
		if err == nil {
			m.stats.count(2, int64(reqSize+replyFloor))
		}
		done.Send(ctx, &Completion{Err: err})
		return
	}
	m.stats.count(1, int64(reqSize))
	elems := payloadElems(args)
	issued := m.clk.Now()
	stub.InvokeCB(method, func(res []any, service time.Duration, err error) {
		// This callback runs on the connection's single reader goroutine —
		// every later pending response waits behind it — so the reply bytes
		// are approximated (payload elements × width + floor) instead of
		// gob re-encoding the results just for the traffic counter.
		m.stats.count(1, int64(approxReplySize(res)))
		done.Send(ctx, stampCompletion(m.clk, res, err, issued, service, elems))
	}, args...)
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
// failure — including the fault layer reconnecting underneath it — simply
// returns the error. The method must therefore be safe to repeat.
func (m *NetRMI) InvokeParked(obj any, method string, args ...any) ([]any, error) {
	stub, err := m.stubOf(method, obj)
	if err != nil {
		return nil, err
	}
	res, err := stub.OnStream(parkStream).Invoke(method, args...)
	if err == nil {
		m.stats.count(2, int64(m.sizer.Size(args)+approxReplySize(res)))
	}
	return res, err
}

// stampCompletion builds a windowed completion carrying real-transport
// tuning signals. The sim middlewares stamp issue/arrival/service instants
// from the virtual clock; here only differences are measurable, so the
// completion encodes them relative to zero: issuedAt 0 and arrival
// (rtt−service)/2 make the window controller's rtt0 = 2·(arrival−issuedAt)
// come out as the measured non-compute round trip. A missing service stamp
// (transport failure) leaves the completion signal-free, which the
// controllers treat as "hold the fixed knob". The RTT is measured on the
// middleware's clock, so under the chaos harness's virtual time the tuning
// controllers see the injected latencies, not the wall.
func stampCompletion(clk clock.Clock, res []any, err error, issued time.Time, service time.Duration, elems int) *Completion {
	c := &Completion{Res: res, Err: err}
	if service > 0 {
		if half := (clk.Since(issued) - service) / 2; half > 0 {
			c.arrival = half
		}
		c.service = service
		c.elems = elems
	}
	return c
}

// approxReplySize estimates a reply's wire size without re-encoding it:
// the acknowledgement floor plus four bytes per []int32 payload element.
// Exact sizing (sizer.Size) gob-encodes the value, which is too expensive
// for the client's in-order reader.
func approxReplySize(res []any) int {
	return replyFloor + 4*payloadElems(res)
}

// LocalityCosted implements the optional Middleware capability: the real
// transport makes cross-node steals genuinely costlier than co-located
// ones, so placement-aware victim selection pays here.
func (m *NetRMI) LocalityCosted() bool { return true }

// Reset asks every configured node to unbind its placed objects (connecting
// as needed), so a long-running daemon can serve successive runs with fresh
// "PS<n>" names. Drivers targeting shared daemons call it before placing.
// With a fault policy enabled, Reset first invalidates the journal
// generation — an in-flight recovery abandons instead of resurrecting
// pre-reset exports — and afterwards re-handshakes each session, since the
// node's reset rotates its epoch (the server-side half of the same guard).
func (m *NetRMI) Reset() error {
	fa := m.faults
	if fa != nil {
		fa.invalidate(&FaultError{Err: errMWReset})
	}
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
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if _, err := p.ctl.Invoke(rmi.CtlReset, resetArgs...); err != nil {
			errs = append(errs, err)
			continue
		}
		if fa != nil {
			if _, err := p.client.Handshake(); err != nil {
				errs = append(errs, err)
				continue
			}
		}
		ok++
	}
	if fa != nil && !fa.policy.NoFailover && ok > 0 {
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

// Join implements Joiner: it drains every connection's one-way window and
// returns the gathered remote failures, so Stack.Join observes the void
// traffic this middleware still has in flight. With a fault policy enabled
// it instead waits for the journal to settle — every tracked call
// acknowledged, replayed, failed over or requeued; recoveries finished —
// and returns the terminal fault errors (a NoFailoverError when an object
// could not be re-homed anywhere).
func (m *NetRMI) Join(ctx exec.Context) error {
	var errs []error
	if fa := m.faults; fa != nil {
		errs = append(errs, fa.join())
	} else {
		m.mu.Lock()
		peers := make([]*netPeer, 0, len(m.peers))
		for _, p := range m.peers {
			peers = append(peers, p)
		}
		m.mu.Unlock()
		for _, p := range peers {
			if err := p.client.Flush(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	// With a pipeline topology installed the driver's drained windows are
	// only the first hop: run the distributed quiescence protocol over the
	// node-side forward lanes (see topology.go).
	errs = append(errs, m.topoJoin(ctx))
	return errors.Join(errs...)
}

// Quiet implements Joiner.
func (m *NetRMI) Quiet() bool {
	if !m.topoQuiet() {
		return false
	}
	if fa := m.faults; fa != nil {
		return fa.quiet()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.peers {
		if p.client.InFlightSends() > 0 {
			return false
		}
	}
	return true
}

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
	if fa := m.faults; fa != nil {
		fa.invalidate(rmi.ErrClosed)
	}
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
// dispatch re-enters the node domain's weaver with MarkRemote set, exactly
// like the simulated middlewares' server side.
func HostClass(n *rmi.Node, class *Class) {
	n.Host(class.Name(), classServant{class})
}

type classServant struct{ c *Class }

func (s classServant) New(ctx exec.Context, args []any) (any, error) {
	return s.c.New(ctx, args...)
}

func (s classServant) Invoke(ctx exec.Context, obj any, method string, args []any) ([]any, error) {
	return s.c.Dispatch(ctx, obj, method, args)
}

func (s classServant) WireTypes() []any { return s.c.WireSamples() }

// ForwardRule implements rmi.RuleForwarder: the node's forward lane derives
// peer-to-peer pipeline hops through the class's named rules.
func (s classServant) ForwardRule(rule string) (func(stage int, results, args []any) []any, bool) {
	return s.c.ForwardRule(rule)
}
