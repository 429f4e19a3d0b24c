package rmi

import (
	"encoding/gob"
	"fmt"
	"strings"
	"sync"
)

// This file is the node side of peer-to-peer pipeline forwarding. A driver
// that placed a pipeline's stages across nodes installs the stage topology
// here (CtlTopology): for every locally hosted stage the node learns its
// successor's bound name and hosting address. After a stage call is
// dispatched, the node derives the next hop's arguments through the class's
// named forward rule (RuleForwarder) and ships them DIRECTLY to the
// successor's node over an ordinary one-way client — the driver is not on
// the path. The forward rides the ack-clocked send window, so a slow
// downstream stage backpressures its upstream peer (and, hop by hop, the
// driver's ingest) for free.
//
// Delivery accounting uses per-call acknowledgements (Stub.SendSeq): because
// a server acknowledges a one-way request only AFTER executing it, "no
// unacknowledged forwards anywhere" means "every forwarded hop has executed
// at its target" — the soundness anchor of the driver's quiescence poll
// (CtlPipePoll). A forward whose connection dies before the ack is STRANDED:
// the node retains its arguments and hands them to the driver at the next
// poll, and the driver redelivers through its own (fault-journaled) stubs —
// the automatic ClientForward fallback for a broken hop.
//
// Hops are not deduped by session: the lane dials its successors without a
// session tag, so a hop is sent untracked, and a redelivered strand may run
// a second time at its target. The application owns hop duplicates — the
// image pipeline's terminal ledger records each frame id at most once.

// Control verbs served under ControlName, in addition to the creation
// protocol (see node.go).
const (
	// CtlTopology installs (or re-installs, under a higher version) a
	// pipeline topology: args are the wire form produced by the driver —
	// version int64, method, rule string, names []string, addrs []string.
	// names[i] is stage i's bound object name and addrs[i] the address of
	// the node hosting it; the node keeps hops for the stages bound locally.
	CtlTopology = "Topology"
	// CtlPipePoll reports the node's forward-lane accounting for one
	// driver's namespace: args are prefix string, drain bool; the reply
	// carries a PipeStatus. With drain set, stranded forwards and forward
	// errors transfer to the caller (the node forgets them).
	CtlPipePoll = "PipePoll"
)

// RuleForwarder is an optional Servant capability: classes that registered
// named forward rules expose them here, so the node can derive a hop's
// arguments without depending on the weaving layer. The returned function
// must be pure data-in/data-out (it runs on the server's dispatch
// goroutine).
type RuleForwarder interface {
	// ForwardRule resolves a named forward rule; ok reports whether the
	// class registered it.
	ForwardRule(rule string) (fn func(stage int, results, args []any) []any, ok bool)
}

// Stranded is one forward the node could not deliver to its successor peer:
// the arguments of a hop whose connection failed before the acknowledgement
// (or could not be established). The driver collects strands through
// CtlPipePoll and redelivers them through its own stubs — which, under a
// fault policy, journals them into the recovery machinery.
type Stranded struct {
	// Name is the successor stage's bound object name.
	Name string
	// Stage is the successor's stage index (what the driver resolves
	// against its own stage table when the name has been re-homed).
	Stage int
	// Method is the pipeline's processing method.
	Method string
	// Args is the derived hop argument list.
	Args []any
}

// PipeStatus is one node's forward-lane accounting, scoped to a driver's
// namespace prefix: cumulative counters plus (when drained) the stranded
// forwards and forward errors accumulated since the last drain.
type PipeStatus struct {
	// Version is the highest topology version installed at this node for
	// the polled namespace.
	Version int64
	// Initiated counts forwards this node derived (cumulative).
	Initiated int64
	// Acked counts forwards acknowledged by the successor node — executed
	// there, by the ack-after-execution contract (cumulative).
	Acked int64
	// StrandedCum counts forwards that ended stranded (cumulative; strands
	// already drained by the driver stay counted).
	StrandedCum int64
	// Errs are remote application errors successor stages returned for
	// delivered forwards (drained).
	Errs []string
	// Strands are the undeliverable forwards awaiting redelivery (drained).
	Strands []Stranded
}

// Inflight is the number of forwards sent but not yet acknowledged (nor
// stranded). Zero means every forward this node initiated has executed at
// its successor.
func (s PipeStatus) Inflight() int64 { return s.Initiated - s.Acked - s.StrandedCum }

func init() {
	// Topology installs and poll replies travel inside control requests.
	gob.Register([]string(nil))
	gob.Register(PipeStatus{})
	gob.Register(Stranded{})
}

// pipeHop is one locally hosted stage's routing entry.
type pipeHop struct {
	version  int64  // the install that wrote this entry
	stage    int    // this stage's index
	method   string // the processing method whose completions forward
	rule     string // the class's named forward rule
	next     string // successor's bound name ("" at the terminal stage)
	nextAddr string // successor's hosting node address
	broken   bool   // transport to the successor failed at this version
}

// pipeCounters is the per-stage-name accounting. It lives outside the hop
// table so counters survive topology re-installs (the driver's stability
// detection needs them monotone).
type pipeCounters struct {
	initiated int64
	acked     int64
	stranded  int64
}

// pipePeer is one lazily dialled connection to a successor stage: one per
// (successor address, successor name), never shared between two hops. Two
// hops that went the same way on one connection would share its send window
// and its dispatch lane at the successor node, and the nodes' lanes could
// then wait on each other (see afterDispatch).
type pipePeer struct {
	client *Client
	stub   *Stub
}

// peerKey names one hop's connection: the successor's node and bound name.
type peerKey struct{ addr, name string }

// pipeRouter is a node's forward lane: the installed topology, the successor
// connections, and the delivery accounting the driver polls.
type pipeRouter struct {
	n *Node

	mu       sync.Mutex
	hops     map[string]*pipeHop      // by local stage name
	counters map[string]*pipeCounters // by local stage name, survives re-installs
	peers    map[peerKey]*pipePeer    // by successor address and name
	strands  []Stranded
	errs     []string
}

func newPipeRouter(n *Node) *pipeRouter {
	return &pipeRouter{
		n:        n,
		hops:     make(map[string]*pipeHop),
		counters: make(map[string]*pipeCounters),
		peers:    make(map[peerKey]*pipePeer),
	}
}

// install applies one CtlTopology verb. Installs are idempotent and
// version-ordered per pipeline: a stale version (a re-push racing a newer
// install of the same stages) is ignored; a newer one replaces the pipeline's
// hops and clears every broken mark — the driver re-pushes after re-homing a
// stage, so the successor addresses are current again. The version lives in
// the hops it wrote, not in the node: a driver's numbering restarts at 1, so
// once a reset has dropped the hops of a finished run (or of one tenant's
// namespace) the next driver's first install is new again, and one tenant's
// high version never makes another's look stale. Counters persist across
// installs. It returns the version now in force for these stages.
func (r *pipeRouter) install(version int64, method, rule string, names, addrs []string) (int64, error) {
	if len(names) != len(addrs) {
		return 0, fmt.Errorf("rmi: topology with %d names but %d addrs", len(names), len(addrs))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range names {
		if hop := r.hops[name]; hop != nil && version <= hop.version {
			return hop.version, nil
		}
	}
	// Drop this pipeline's previous hops (identified by membership in the
	// new stage list OR a previous install), keep other pipelines' hops.
	for _, name := range names {
		delete(r.hops, name)
	}
	r.n.mu.Lock()
	for i, name := range names {
		if _, local := r.n.objects[name]; !local {
			continue
		}
		hop := &pipeHop{version: version, stage: i, method: method, rule: rule}
		if i+1 < len(names) {
			hop.next, hop.nextAddr = names[i+1], addrs[i+1]
		}
		r.hops[name] = hop
		if r.counters[name] == nil {
			r.counters[name] = &pipeCounters{}
		}
	}
	r.n.mu.Unlock()
	r.n.pipeActive.Store(len(r.hops) > 0)
	return version, nil
}

// poll reports (and with drain set, hands over) the forward-lane accounting
// for one namespace prefix.
func (r *pipeRouter) poll(prefix string, drain bool) PipeStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	var st PipeStatus
	for name, hop := range r.hops {
		if strings.HasPrefix(name, prefix) && hop.version > st.Version {
			st.Version = hop.version
		}
	}
	for name, c := range r.counters {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		st.Initiated += c.initiated
		st.Acked += c.acked
		st.StrandedCum += c.stranded
	}
	if drain {
		keepS := r.strands[:0]
		for _, s := range r.strands {
			if strings.HasPrefix(s.Name, prefix) {
				st.Strands = append(st.Strands, s)
			} else {
				keepS = append(keepS, s)
			}
		}
		r.strands = keepS
		st.Errs = append(st.Errs, r.errs...)
		r.errs = nil
	} else {
		st.Strands = append([]Stranded(nil), r.strands...)
		st.Errs = append([]string(nil), r.errs...)
	}
	return st
}

// reset drops the hops (and counters) of one namespace prefix — "" clears
// the whole lane, the full-node reset — and with them the versions they were
// installed under, so the next driver's first install is not stale. The hop
// connections to successors under the prefix close with them.
func (r *pipeRouter) reset(prefix string) {
	var dropped []*pipePeer
	r.mu.Lock()
	for key, p := range r.peers {
		if strings.HasPrefix(key.name, prefix) {
			dropped = append(dropped, p)
			delete(r.peers, key)
		}
	}
	if prefix == "" {
		r.hops = make(map[string]*pipeHop)
		r.counters = make(map[string]*pipeCounters)
		r.strands, r.errs = nil, nil
	} else {
		for name := range r.hops {
			if strings.HasPrefix(name, prefix) {
				delete(r.hops, name)
				delete(r.counters, name)
			}
		}
		keep := r.strands[:0]
		for _, s := range r.strands {
			if !strings.HasPrefix(s.Name, prefix) {
				keep = append(keep, s)
			}
		}
		r.strands = keep
	}
	active := len(r.hops) > 0
	r.mu.Unlock()
	r.n.pipeActive.Store(active)
	for _, p := range dropped {
		p.client.Close()
	}
}

// close tears the forward-lane connections down with the node.
func (r *pipeRouter) close() {
	r.mu.Lock()
	peers := make([]*pipePeer, 0, len(r.peers))
	for _, p := range r.peers {
		peers = append(peers, p)
	}
	r.peers = make(map[peerKey]*pipePeer)
	r.mu.Unlock()
	for _, p := range peers {
		p.client.Close()
	}
}

// afterDispatch runs on the server's dispatch goroutine after a hosted
// object's method executed successfully: if the object is a pipeline stage
// of an installed topology and the method is the pipeline's processing
// method, derive the next hop and forward it peer-to-peer. The send blocks
// on the forward lane's flow-control window — deliberately: the dispatch's
// own acknowledgement (to the upstream peer or the driver) is withheld while
// this stage waits for downstream credit, which is exactly the per-stage
// backpressure chain. Each hop has a connection of its own (stubFor), so the
// window a stage waits on is drained by its successor's lane alone, and that
// lane waits only on stages further down. Pipelines are acyclic, so the
// chain of waits ends at the terminal stage and cannot deadlock.
func (r *pipeRouter) afterDispatch(name string, servant Servant, method string, args, results []any) {
	r.mu.Lock()
	hop := r.hops[name]
	if hop == nil || hop.method != method || hop.next == "" {
		r.mu.Unlock()
		return
	}
	rule, stage := hop.rule, hop.stage
	r.mu.Unlock()

	rf, ok := servant.(RuleForwarder)
	if !ok {
		r.fail(fmt.Sprintf("rmi: stage %s: servant has no forward rules (topology installed for a class that opts out)", name))
		return
	}
	fn, ok := rf.ForwardRule(rule)
	if !ok {
		r.fail(fmt.Sprintf("rmi: stage %s: class registered no forward rule %q", name, rule))
		return
	}
	fw := fn(stage, results, args)
	if fw == nil {
		return // the rule stopped propagation at this stage
	}

	r.mu.Lock()
	// Re-read the hop: a re-install may have re-homed the successor while
	// the rule ran.
	hop = r.hops[name]
	if hop == nil || hop.next == "" {
		r.mu.Unlock()
		return
	}
	c := r.counters[name]
	c.initiated++
	next, nextAddr, broken := hop.next, hop.nextAddr, hop.broken
	r.mu.Unlock()

	if broken {
		r.strand(name, next, hop.stage+1, method, fw)
		return
	}
	stub, err := r.stubFor(next, nextAddr)
	if err != nil {
		r.breakHop(name)
		r.strand(name, next, hop.stage+1, method, fw)
		return
	}
	stub.SendSeq(method, 0, sinkFunc(func(_ []any, err error) {
		switch {
		case err == nil:
			r.settle(name, nil)
		case isRemote(err):
			// Delivered and executed — the successor's application error
			// travels to the driver, not back through the hop.
			r.settle(name, err)
		default:
			// Transport death before the ack: execution at the successor is
			// unknown, so retain the arguments for the driver's redelivery
			// path and stop using this hop until a re-install heals it.
			r.breakHop(name)
			r.strand(name, next, stage+1, method, fw)
		}
	}), fw...)
}

// isRemote reports whether err is the successor servant's own failure (the
// hop delivered) rather than a transport outcome.
func isRemote(err error) bool {
	_, ok := err.(*RemoteError)
	return ok
}

// stubFor resolves the stub of a successor object at addr, dialling the
// hop's own connection on first use. A failed Lookup closes that connection
// and caches nothing, so the next forward after a re-install dials again.
func (r *pipeRouter) stubFor(name, addr string) (*Stub, error) {
	key := peerKey{addr, name}
	r.mu.Lock()
	p := r.peers[key]
	r.mu.Unlock()
	if p != nil {
		return p.stub, nil
	}
	client, err := Dial(addr, WithClock(r.n.srv.clk))
	if err != nil {
		return nil, err
	}
	stub, err := client.Lookup(name)
	if err != nil {
		// The connection may be healthy with the name simply not (yet)
		// bound, or dead; either way the hop cannot be used.
		client.Close()
		return nil, err
	}
	r.mu.Lock()
	if cur := r.peers[key]; cur != nil {
		// A concurrent dial won the insert; keep the established peer.
		r.mu.Unlock()
		client.Close()
		return cur.stub, nil
	}
	r.peers[key] = &pipePeer{client: client, stub: stub}
	r.mu.Unlock()
	return stub, nil
}

func (r *pipeRouter) settle(name string, remoteErr error) {
	r.mu.Lock()
	if c := r.counters[name]; c != nil {
		c.acked++
	}
	if remoteErr != nil {
		r.errs = append(r.errs, remoteErr.Error())
	}
	r.mu.Unlock()
}

func (r *pipeRouter) strand(name, next string, stage int, method string, args []any) {
	r.mu.Lock()
	if c := r.counters[name]; c != nil {
		c.stranded++
	}
	r.strands = append(r.strands, Stranded{Name: next, Stage: stage, Method: method, Args: args})
	r.mu.Unlock()
}

func (r *pipeRouter) breakHop(name string) {
	r.mu.Lock()
	if hop := r.hops[name]; hop != nil {
		hop.broken = true
	}
	r.mu.Unlock()
}

func (r *pipeRouter) fail(msg string) {
	r.mu.Lock()
	r.errs = append(r.errs, msg)
	r.mu.Unlock()
}
