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

// This file is the driver side of the elastic worker pool: Pool replaces the
// static node address table with a live membership view fed by an
// rmi.Registry. Nodes register and heartbeat with the registry
// (rmi.WithRegistry on the daemon); the pool polls the membership on its
// clock seam and reconciles:
//
//   - a new address joins the middleware's table (NetRMI.addNode) and the
//     OnJoin hook fires — the farm widens (Farm.Grow) and the stealing
//     scheduler deals the newcomer a deque;
//   - a member that misses heartbeats is CORDONED (no new placements; the
//     failover target scan skips it) and, after the drain grace, DRAINED:
//     its exports migrate to survivors over the reincarnation machinery
//     (netFaults.drainNode), and the calls journaled on it replay there;
//   - a member that heals inside the grace (a flapping link) is uncordoned
//     and keeps its placements — the grace exists so flaps do not churn;
//   - a member that deregistered (graceful shutdown) or vanished from the
//     registry is drained immediately.
//
// Everything waits on clock.Clock, so the whole control plane runs under
// clock.Virtual in the chaos tests.

// PoolOption configures DialPool.
type PoolOption func(*poolOptions)

type poolOptions struct {
	net        []NetOption
	poll       time.Duration
	pollSet    bool
	drainGrace time.Duration
}

// defaultPoolPoll is the membership poll interval when WithPoolPoll is not
// given.
const defaultPoolPoll = 100 * time.Millisecond

// cordonAfter is the number of consecutive unhealthy observations before a
// member is cordoned: one missed poll is a flap, two condemn it.
const cordonAfter = 2

// WithPoolNet forwards middleware options (clock, codec, streams, fault
// policy) to the NetRMI the pool builds over the discovered members.
func WithPoolNet(opts ...NetOption) PoolOption {
	return func(o *poolOptions) { o.net = append(o.net, opts...) }
}

// WithPoolPoll sets the membership poll interval. 0 disables the background
// watcher entirely: the caller drives reconciliation by calling Refresh —
// the mode the virtual-time tests use. Negative selects the default.
func WithPoolPoll(d time.Duration) PoolOption {
	return func(o *poolOptions) { o.poll, o.pollSet = d, true }
}

// WithDrainGrace sets how long a cordoned member may heal before its exports
// are migrated off. 0 drains at the next reconciliation after the cordon.
func WithDrainGrace(d time.Duration) PoolOption {
	return func(o *poolOptions) { o.drainGrace = d }
}

// poolMember is the pool's record of one registry member.
type poolMember struct {
	addr     string
	node     exec.NodeID
	bad      int  // consecutive unhealthy observations
	cordoned bool // no new placements; drain pending or done
	drained  bool
	left     bool      // absent from the registry (deregistered or expired)
	graceAt  time.Time // when the drain grace elapses (zero: not scheduled)
}

// Pool is a live, self-healing view of the worker membership: a NetRMI whose
// node table follows the registry.
type Pool struct {
	m    *NetRMI
	clk  clock.Clock
	opts poolOptions

	regAddr string

	mu       sync.Mutex
	cli      *rmi.Client
	stub     *rmi.Stub
	members  map[string]*poolMember
	onJoin   func(node exec.NodeID, addr string)
	onCordon func(node exec.NodeID, addr string, on bool)
	firstErr error // the watcher's first failed pass since the last Err
	moreErrs int   // and how many failed after it
	closed   bool
	stop     chan struct{}
	done     chan struct{}
}

// DialPool connects to a registry, builds the real-TCP middleware over the
// currently healthy members, and (unless WithPoolPoll(0)) starts the watcher
// that keeps membership, cordon state and placements reconciled. At least
// one healthy member must exist — a farm needs somewhere to place its first
// replica; later emptiness is survived (everything cordons, Refresh reports
// it, placements fail over when members return).
func DialPool(registry string, opts ...PoolOption) (*Pool, error) {
	var o poolOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	if !o.pollSet || o.poll < 0 {
		o.poll = defaultPoolPoll
	}
	p := &Pool{opts: o, regAddr: registry, members: make(map[string]*poolMember)}

	// Resolve the middleware clock the same way DialNet will, so the pool's
	// waits and the middleware's ride one seam.
	var no netOptions
	for _, opt := range o.net {
		if opt != nil {
			opt(&no)
		}
	}
	p.clk = clock.Or(no.clk)

	if err := p.ensureRegistry(); err != nil {
		return nil, fmt.Errorf("par: pool dial registry %s: %w", registry, err)
	}
	mems, err := p.fetchMembers()
	if err != nil {
		p.closeRegistry()
		return nil, fmt.Errorf("par: pool membership from %s: %w", registry, err)
	}
	addrs := make(map[exec.NodeID]string)
	var next exec.NodeID
	sort.Slice(mems, func(i, j int) bool { return mems[i].Addr < mems[j].Addr })
	for _, mm := range mems {
		if !mm.Healthy {
			continue
		}
		addrs[next] = mm.Addr
		p.members[mm.Addr] = &poolMember{addr: mm.Addr, node: next}
		next++
	}
	if len(addrs) == 0 {
		p.closeRegistry()
		return nil, fmt.Errorf("par: pool at %s has no healthy members", registry)
	}
	m, err := DialNet(addrs, o.net...)
	if err != nil {
		p.closeRegistry()
		return nil, err
	}
	p.m = m
	// Every export name — and Reset — is scoped by a fresh prefix from the
	// registry, so many drivers share one pool without name collisions.
	ns, err := p.namespace()
	if err != nil {
		m.Close()
		p.closeRegistry()
		return nil, fmt.Errorf("par: pool namespace from %s: %w", registry, err)
	}
	m.mu.Lock()
	m.prefix = ns
	m.mu.Unlock()
	if o.poll > 0 {
		p.stop = make(chan struct{})
		p.done = make(chan struct{})
		go p.watch(p.stop, p.done)
	}
	return p, nil
}

// Middleware returns the pool's NetRMI — the Middleware handed to the
// Distribution module.
func (p *Pool) Middleware() *NetRMI { return p.m }

// OnJoin installs the hook invoked (outside the pool lock, from the
// reconciliation pass) for every node that joins after DialPool — typically
// Farm.Grow, so the farm widens onto the newcomer.
func (p *Pool) OnJoin(fn func(node exec.NodeID, addr string)) {
	p.mu.Lock()
	p.onJoin = fn
	p.mu.Unlock()
}

// OnCordon installs the hook invoked (outside the pool lock) whenever a
// member's cordon flips — on when health observations condemn it or it
// leaves the registry, off when it heals inside the grace or returns. A
// resident pipeline service uses this to pump its topology promptly, so
// hops aimed at the condemned member strand, redeliver and heal without
// waiting for the next scheduled poll.
func (p *Pool) OnCordon(fn func(node exec.NodeID, addr string, on bool)) {
	p.mu.Lock()
	p.onCordon = fn
	p.mu.Unlock()
}

// Placement returns a placement policy that round-robins over the pool's
// currently eligible (known, uncordoned) nodes at each placement, so a farm
// built after a join uses the widened pool and one built during a cordon
// avoids the condemned member.
func (p *Pool) Placement() Placement { return &livePlacement{m: p.m} }

// livePlacement round-robins over the eligible node set AT EACH CALL — the
// set may have changed since the previous placement.
type livePlacement struct {
	m  *NetRMI
	mu sync.Mutex
	rr int
}

func (p *livePlacement) NodeFor(int) exec.NodeID {
	ids := p.m.eligibleIDs()
	if len(ids) == 0 {
		return 0 // nothing eligible: fall back to node 0 and let recovery fight it out
	}
	p.mu.Lock()
	k := p.rr
	p.rr++
	p.mu.Unlock()
	return ids[k%len(ids)]
}

// PoolMember is one row of the pool's membership snapshot.
type PoolMember struct {
	Addr     string
	Node     exec.NodeID
	Healthy  bool
	Cordoned bool
	Drained  bool
}

// Members snapshots the pool's current membership view.
func (p *Pool) Members() []PoolMember {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PoolMember, 0, len(p.members))
	for _, mm := range p.members {
		out = append(out, PoolMember{
			Addr: mm.addr, Node: mm.node,
			Healthy: !mm.left && mm.bad == 0, Cordoned: mm.cordoned, Drained: mm.drained,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Refresh runs one reconciliation pass against the registry: join new
// members, track health, cordon/drain/uncordon per the thresholds. It is the
// manual-mode pump (WithPoolPoll(0)) and the body of the watcher. Drain
// failures are remembered and returned; membership fetch failures are
// returned immediately (the registry may be restarting — the next pass
// re-dials).
func (p *Pool) Refresh() error {
	if err := p.ensureRegistry(); err != nil {
		return err
	}
	mems, err := p.fetchMembers()
	if err != nil {
		p.closeRegistry() // re-dial on the next pass; registry restarts self-heal
		return err
	}
	now := p.clk.Now()
	seen := make(map[string]bool, len(mems))

	type action struct {
		node   exec.NodeID
		addr   string
		join   bool
		cordon *bool
		drain  bool
	}
	var acts []action

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return rmi.ErrClosed
	}
	for _, mm := range mems {
		seen[mm.Addr] = true
		rec := p.members[mm.Addr]
		if rec == nil {
			// A newcomer: joins cordon-free.
			rec = &poolMember{addr: mm.Addr}
			p.members[mm.Addr] = rec
			rec.node = -1 // resolved by addNode below
			acts = append(acts, action{addr: mm.Addr, join: true})
			continue
		}
		rec.left = false
		if mm.Healthy {
			rec.bad = 0
			if rec.cordoned && !rec.drained {
				// Healed inside the grace: lift the cordon, keep placements.
				rec.cordoned = false
				rec.graceAt = time.Time{}
				off := false
				acts = append(acts, action{node: rec.node, addr: rec.addr, cordon: &off})
			} else if rec.cordoned && rec.drained {
				// Came back after eviction (a fresh daemon on the old
				// address): eligible again for NEW placements.
				rec.cordoned, rec.drained, rec.graceAt = false, false, time.Time{}
				off := false
				acts = append(acts, action{node: rec.node, addr: rec.addr, cordon: &off})
			}
			continue
		}
		rec.bad++
		if !rec.cordoned && rec.bad >= cordonAfter {
			rec.cordoned = true
			rec.graceAt = now.Add(p.opts.drainGrace)
			on := true
			acts = append(acts, action{node: rec.node, addr: rec.addr, cordon: &on})
		}
	}
	for _, rec := range p.members {
		if !seen[rec.addr] && !rec.left {
			// Deregistered or expired from the registry: gone for real —
			// cordon and drain without grace.
			rec.left = true
			if !rec.cordoned {
				rec.cordoned = true
				on := true
				acts = append(acts, action{node: rec.node, addr: rec.addr, cordon: &on})
			}
			rec.graceAt = now
		}
		if rec.cordoned && !rec.drained && !rec.graceAt.IsZero() && !rec.graceAt.After(now) {
			rec.drained = true // one drain per cordon; a heal or a return re-arms
			acts = append(acts, action{node: rec.node, addr: rec.addr, drain: true})
		}
	}
	onJoin, onCordon := p.onJoin, p.onCordon
	p.mu.Unlock()

	// Apply outside the pool lock: addNode/setCordon take the middleware
	// lock, a drain blocks on quiescence, and OnJoin may run Farm.Grow.
	var errs []error
	for _, a := range acts {
		switch {
		case a.join:
			node := p.m.addNode(a.addr)
			p.mu.Lock()
			if rec := p.members[a.addr]; rec != nil {
				rec.node = node
			}
			p.mu.Unlock()
			if onJoin != nil {
				onJoin(node, a.addr)
			}
		case a.cordon != nil:
			p.m.setCordon(a.node, *a.cordon)
			if onCordon != nil {
				onCordon(a.node, a.addr, *a.cordon)
			}
		case a.drain:
			if err := p.m.faults.drainNode(a.node); err != nil {
				errs = append(errs, fmt.Errorf("par: pool drain of %s (node %d): %w", a.addr, a.node, err))
			}
		}
	}
	return errors.Join(errs...)
}

// watch is the background reconciliation loop (poll interval > 0). Errors
// are kept for Err, the first in full and the rest counted, so a registry
// that stays down costs a counter, not a list; the loop never stops on them.
func (p *Pool) watch(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		case <-p.clk.After(p.opts.poll):
			if err := p.Refresh(); err != nil && !errors.Is(err, rmi.ErrClosed) {
				p.mu.Lock()
				if p.firstErr == nil {
					p.firstErr = err
				} else {
					p.moreErrs++
				}
				p.mu.Unlock()
			}
		}
	}
}

// Err returns the watcher's first reconciliation error since the last Err,
// with a count of the failed passes after it, and clears both.
func (p *Pool) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	err, more := p.firstErr, p.moreErrs
	p.firstErr, p.moreErrs = nil, 0
	if more > 0 {
		err = fmt.Errorf("%w (and %d more failed reconciliation passes)", err, more)
	}
	return err
}

// Close stops the watcher and closes the registry connection and the
// middleware.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	stop, done := p.stop, p.done
	p.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	p.closeRegistry()
	p.m.Close()
}

// --- Registry client plumbing ------------------------------------------------

// ensureRegistry dials the registry lazily (and re-dials after a failure).
func (p *Pool) ensureRegistry() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stub != nil {
		return nil
	}
	cli, err := rmi.Dial(p.regAddr, rmi.WithClock(p.clk))
	if err != nil {
		return err
	}
	stub, err := cli.Lookup(rmi.RegistryName)
	if err != nil {
		cli.Close()
		return err
	}
	p.cli, p.stub = cli, stub
	return nil
}

func (p *Pool) closeRegistry() {
	p.mu.Lock()
	cli := p.cli
	p.cli, p.stub = nil, nil
	p.mu.Unlock()
	if cli != nil {
		cli.Close()
	}
}

// fetchMembers asks the registry for the membership.
func (p *Pool) fetchMembers() ([]rmi.Member, error) {
	p.mu.Lock()
	stub := p.stub
	p.mu.Unlock()
	if stub == nil {
		return nil, errors.New("par: pool registry connection not established")
	}
	res, err := stub.Invoke(rmi.RegMembers)
	if err != nil {
		return nil, err
	}
	return rmi.ParseMembers(res)
}

// namespace asks the registry for a fresh per-driver binding namespace.
func (p *Pool) namespace() (string, error) {
	p.mu.Lock()
	stub := p.stub
	p.mu.Unlock()
	if stub == nil {
		return "", errors.New("par: pool registry connection not established")
	}
	res, err := stub.Invoke(rmi.RegNamespace)
	if err != nil {
		return "", err
	}
	if len(res) == 0 {
		return "", errors.New("par: registry namespace reply empty")
	}
	ns, ok := res[0].(string)
	if !ok {
		return "", fmt.Errorf("par: registry namespace reply is %T, want string", res[0])
	}
	return ns, nil
}
