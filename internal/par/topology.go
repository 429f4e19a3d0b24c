package par

import (
	"errors"
	"fmt"
	"time"

	"aspectpar/internal/exec"
	"aspectpar/internal/rmi"
)

// This file is the driver side of peer-to-peer pipeline forwarding over the
// real middleware. The Pipeline module (partition.go) hands the ordered
// stage references to InstallPipeline, which compiles them into a Topology —
// the stage → placement → successor table — and installs it on every worker
// node hosting a stage (rmi.CtlTopology). From then on a stage's completions
// are forwarded node-side, directly to the successor's hosting peer; the
// driver's part shrinks to feeding stage 0 (one-way, under the send window)
// and running the quiescence protocol below.
//
// Termination detection: the forward lane acknowledges a hop only after the
// successor executed it, so when (a) the driver's own windows are drained,
// (b) every node reports zero unacknowledged forwards, and (c) the
// cumulative initiated/stranded counters did not move between two
// consecutive full polls, no hop can be in flight anywhere — the pipeline is
// quiescent. Hops whose peer connection died are STRANDED at the forwarding
// node; the driver collects them in the same poll and redelivers through its
// own stubs (journaled under a fault policy) — the automatic ClientForward
// fallback for exactly the hops that need it. After a placement change (a
// reincarnated or failed-over stage) the topology is re-pushed under a
// bumped version, healing the broken hop for subsequent traffic.

// Topology is the compiled placement plan of one distributed pipeline: for
// each stage, its export name, its hosting node and that node's dialable
// address. It is what InstallPipeline ships to the worker nodes, and what
// tests and diagnostics inspect to see where a pipeline physically runs.
type Topology struct {
	// Class is the stage class's logical name.
	Class string
	// Method is the processing method whose completions forward.
	Method string
	// Rule is the class's named forward rule (Class.DefineForward).
	Rule string
	// Version orders installs: nodes ignore topologies older than the one
	// they hold, so a re-push after failover cannot be undone by a racing
	// original install.
	Version int64
	// Stages are the pipeline elements in stage order.
	Stages []TopologyStage
}

// TopologyStage is one pipeline element's placement.
type TopologyStage struct {
	// Name is the stage's bound object name at its node.
	Name string
	// Node is the hosting node's ID in the middleware's address table.
	Node exec.NodeID
	// Addr is the hosting node's dialable address — what the predecessor's
	// forward lane connects to.
	Addr string
}

// TopologyInstaller is the optional Middleware capability behind
// Pipeline.UseTopology: compiling a created stage chain into a Topology and
// installing it on the worker nodes. Of the built-in middlewares only NetRMI
// implements it — the in-process simulated middleware re-enters the driver's
// own weaver on the server side, so its hops already run "at the stage"
// without a plan.
type TopologyInstaller interface {
	// InstallPipeline compiles and installs the topology for the given
	// stage references (in stage order) and returns the installed plan.
	InstallPipeline(class *Class, method, rule string, stages []any) (*Topology, error)
}

// TopologyStats counts what the peer-to-peer forward lane did, aggregated
// over the driver's quiescence polls.
type TopologyStats struct {
	// Installs counts topology pushes (initial and re-pushes after
	// placement changes), summed over nodes.
	Installs int64
	// PeerForwards counts stage-to-stage hops the worker nodes delivered
	// directly, without touching the driver.
	PeerForwards int64
	// Stranded counts hops whose peer connection failed and whose arguments
	// came back to the driver.
	Stranded int64
	// Redelivered counts stranded hops the driver redelivered through its
	// own stubs (the ClientForward fallback path).
	Redelivered int64
}

// netTopo is NetRMI's installed-topology state.
type netTopo struct {
	topo  *Topology
	refs  []*NetRef // stage references, in stage order
	dirty bool      // a placement changed since the last push
	stats TopologyStats
	// last full-poll snapshot, for the two-pass stability rule
	lastInitiated int64
	lastStranded  int64
	stable        bool // the previous completed pump pass was quiet
}

// InstallPipeline implements TopologyInstaller. The stage references must be
// NetRefs this middleware exported; their placements are read from the
// registry and resolved to addresses through the node table.
func (m *NetRMI) InstallPipeline(class *Class, method, rule string, stages []any) (*Topology, error) {
	if method == "" || rule == "" || len(stages) == 0 {
		return nil, fmt.Errorf("par: InstallPipeline wants a method, a rule and stages (got %q, %q, %d stages)", method, rule, len(stages))
	}
	if _, ok := class.ForwardRule(rule); !ok {
		return nil, fmt.Errorf("par: class %s registered no forward rule %q", class.Name(), rule)
	}
	t := &Topology{Class: class.Name(), Method: method, Rule: rule, Stages: make([]TopologyStage, len(stages))}
	refs := make([]*NetRef, len(stages))
	for i, obj := range stages {
		ref, ok := obj.(*NetRef)
		if !ok {
			return nil, fmt.Errorf("par: InstallPipeline stage %d is %T, want *NetRef (is Distribution plugged over this middleware?)", i, obj)
		}
		refs[i] = ref
	}
	m.mu.Lock()
	m.topoVersion++
	t.Version = m.topoVersion
	m.mu.Unlock()
	if err := m.resolveStages(t, refs); err != nil {
		return nil, err
	}
	installs, err := m.pushTopology(t)
	m.mu.Lock()
	m.topo = &netTopo{topo: t, refs: refs}
	m.topo.stats.Installs = installs
	if err != nil {
		// With a fault policy the push is retried by the quiescence pump
		// once recovery re-homes the unreachable node's stages; without one
		// a dead node is fatal, as everywhere else under fail-fast.
		if !m.faults.policy.Enabled {
			m.topo = nil
			m.mu.Unlock()
			return nil, err
		}
		m.topo.dirty = true
	}
	m.mu.Unlock()
	return t, nil
}

// resolveStages fills t.Stages from the current registry placements.
func (m *NetRMI) resolveStages(t *Topology, refs []*NetRef) error {
	for i, ref := range refs {
		node, ok := m.reg.nodeOf(ref)
		if !ok {
			return fmt.Errorf("par: pipeline stage %d (%s) is not exported", i, ref.Name)
		}
		m.mu.Lock()
		addr, ok := m.addrs[node]
		m.mu.Unlock()
		if !ok {
			return fmt.Errorf("par: pipeline stage %d (%s) placed at node %d, which has no address", i, ref.Name, node)
		}
		t.Stages[i] = TopologyStage{Name: ref.Name, Node: node, Addr: addr}
	}
	return nil
}

// pushTopology installs t on every node hosting a stage, returning how many
// nodes took it. Pushes are version-ordered at the nodes, so concurrent or
// repeated pushes are safe.
func (m *NetRMI) pushTopology(t *Topology) (int64, error) {
	names := make([]string, len(t.Stages))
	addrs := make([]string, len(t.Stages))
	nodes := make(map[exec.NodeID]bool)
	for i, s := range t.Stages {
		names[i], addrs[i] = s.Name, s.Addr
		nodes[s.Node] = true
	}
	var errs []error
	installs := int64(0)
	for node := range nodes {
		p, err := m.peer(node)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if _, err := p.ctl.Invoke(rmi.CtlTopology, t.Version, t.Method, t.Rule, names, addrs); err != nil {
			errs = append(errs, fmt.Errorf("par: installing topology v%d at node %d: %w", t.Version, node, err))
			continue
		}
		installs++
		m.stats.count(2, int64(m.sizer.Size([]any{names, addrs})+replyFloor))
	}
	return installs, errors.Join(errs...)
}

// topoMarkDirty notes a placement change (reincarnation failover, drain
// migration): the installed plan no longer matches reality, and the
// quiescence pump re-resolves and re-pushes it under a bumped version.
func (m *NetRMI) topoMarkDirty() {
	m.mu.Lock()
	if m.topo != nil {
		m.topo.dirty = true
		m.topo.stable = false
	}
	m.mu.Unlock()
}

// TopologyStats reports the peer-to-peer forward lane's counters (zero
// unless a pipeline topology was installed). PeerForwards and Stranded
// reflect the node counters as of the last quiescence poll — call after
// Join for settled values.
func (m *NetRMI) TopologyStats() TopologyStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.topo == nil {
		return TopologyStats{}
	}
	return m.topo.stats
}

// Topology returns the currently installed plan (nil without one) — what
// the conformance tests assert placements against.
func (m *NetRMI) Topology() *Topology {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.topo == nil {
		return nil
	}
	return m.topo.topo
}

// PumpTopology runs one pass of the topology quiescence protocol: re-push
// the plan if a placement changed, poll every stage-hosting node's forward
// lane (draining strands and hop errors), and redeliver stranded hops
// through the driver's own stubs. It reports whether the pipeline is
// quiescent — this pass AND the previous one observed zero in-flight
// forwards and unmoved cumulative counters — and the hop errors gathered.
// Join loops it to completion; a resident streaming service calls it
// periodically as its drain/heal heartbeat.
func (m *NetRMI) PumpTopology() (quiet bool, err error) {
	m.mu.Lock()
	nt := m.topo
	m.mu.Unlock()
	if nt == nil {
		return true, nil
	}
	var errs []error

	// Heal first: a dirty plan means some hop table points at a stale
	// placement; re-resolve against the registry and push a bumped version.
	m.mu.Lock()
	dirty := nt.dirty
	m.mu.Unlock()
	if dirty {
		t := &Topology{Class: nt.topo.Class, Method: nt.topo.Method, Rule: nt.topo.Rule,
			Stages: make([]TopologyStage, len(nt.refs))}
		m.mu.Lock()
		m.topoVersion++
		t.Version = m.topoVersion
		m.mu.Unlock()
		if rerr := m.resolveStages(t, nt.refs); rerr != nil {
			errs = append(errs, rerr)
		} else {
			installs, perr := m.pushTopology(t)
			m.mu.Lock()
			nt.stats.Installs += installs
			m.mu.Unlock()
			if perr != nil {
				errs = append(errs, perr)
			} else {
				m.mu.Lock()
				nt.topo = t
				nt.dirty = false
				m.mu.Unlock()
			}
		}
	}

	// Full poll, draining strands and errors.
	nodes := make(map[exec.NodeID]bool)
	m.mu.Lock()
	prefix := m.prefix
	for _, s := range nt.topo.Stages {
		nodes[s.Node] = true
	}
	m.mu.Unlock()
	var initiated, stranded, inflight int64
	var strands []rmi.Stranded
	polled := true
	for node := range nodes {
		p, perr := m.peer(node)
		if perr != nil {
			errs = append(errs, perr)
			polled = false
			continue
		}
		res, perr := p.ctl.Invoke(rmi.CtlPipePoll, prefix, true)
		if perr != nil {
			errs = append(errs, perr)
			polled = false
			continue
		}
		if len(res) != 1 {
			errs = append(errs, fmt.Errorf("par: node %d pipe poll returned %d values", node, len(res)))
			polled = false
			continue
		}
		st, ok := res[0].(rmi.PipeStatus)
		if !ok {
			errs = append(errs, fmt.Errorf("par: node %d pipe poll returned %T", node, res[0]))
			polled = false
			continue
		}
		initiated += st.Initiated
		stranded += st.StrandedCum
		inflight += st.Inflight()
		strands = append(strands, st.Strands...)
		for _, e := range st.Errs {
			errs = append(errs, errors.New(e))
		}
	}

	// Redeliver strands through the driver's own stubs — the ClientForward
	// fallback. The target is resolved by stage index against the CURRENT
	// references, so a strand for a since-re-homed stage lands on the new
	// incarnation (and, under a fault policy, is journaled like any driver
	// call). Redelivered hops re-enter the forward lane at their target, so
	// the chain continues peer-to-peer past the healed hop.
	for _, s := range strands {
		if s.Stage < 0 || s.Stage >= len(nt.refs) {
			errs = append(errs, fmt.Errorf("par: stranded hop for unknown stage %d (%s)", s.Stage, s.Name))
			continue
		}
		if _, rerr := m.Invoke(nil, nt.refs[s.Stage], s.Method, s.Args, false); rerr != nil {
			errs = append(errs, fmt.Errorf("par: redelivering stranded hop to stage %d: %w", s.Stage, rerr))
			continue
		}
		m.mu.Lock()
		nt.stats.Redelivered++
		// Redelivery happened because a hop broke; until the plan is
		// re-pushed the node keeps stranding, so force a heal pass even
		// when no placement changed (same-address restarts).
		nt.dirty = true
		m.mu.Unlock()
	}

	m.mu.Lock()
	nt.stats.PeerForwards = initiated - stranded
	nt.stats.Stranded = stranded
	moved := initiated != nt.lastInitiated || stranded != nt.lastStranded
	nt.lastInitiated, nt.lastStranded = initiated, stranded
	settled := polled && len(strands) == 0 && inflight == 0 && !moved && !nt.dirty
	quiet = settled && nt.stable
	nt.stable = settled
	m.mu.Unlock()
	return quiet, errors.Join(errs...)
}

// topoJoin drives the quiescence protocol to completion: pump until two
// consecutive passes observe a fully settled forward lane. Transient errors
// (a node mid-recovery, a hop mid-heal) are retried as long as passes make
// progress; an error that repeats over many stalled passes is surfaced —
// a permanently unreachable node under fail-fast must not spin.
func (m *NetRMI) topoJoin(ctx exec.Context) error {
	m.mu.Lock()
	active := m.topo != nil
	m.mu.Unlock()
	if !active {
		return nil
	}
	var lastErr error
	stalled := 0
	for {
		quiet, err := m.PumpTopology()
		if err != nil && !m.faults.policy.Enabled {
			return err
		}
		if quiet {
			return err
		}
		if err != nil {
			stalled++
			lastErr = err
			if stalled >= topoJoinStallLimit {
				return fmt.Errorf("par: pipeline topology join stalled: %w", lastErr)
			}
			// Pace the retry: recovery (reconnect backoff, reincarnation
			// replay) runs on the middleware clock, so the wait does too.
			m.clk.Sleep(time.Millisecond)
			continue
		}
		stalled = 0
	}
}

// topoJoinStallLimit bounds consecutive erroring, non-progressing pump
// passes before topoJoin gives up (with the fault machinery's backoffs in
// between, this is generous — a healthy recovery settles in a few passes).
const topoJoinStallLimit = 1000

// topoQuiet is the cheap quiescence read for Joiner.Quiet: the cached
// verdict of the last pump pass. Stack.Join always runs Join (which pumps to
// completion) before trusting Quiet, so staleness only costs an extra loop.
func (m *NetRMI) topoQuiet() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.topo == nil || m.topo.stable
}
