package rmi

import (
	"fmt"
	"sync"
	"time"

	"aspectpar/internal/clock"
)

// This file is the membership half of the elastic-pool control plane: a
// Registry servant that worker daemons register with at startup, beat
// against while alive, and deregister from on graceful shutdown. The
// registry is deliberately passive — it keeps no background goroutine and
// never sleeps. Health is computed lazily from the clock seam at read time
// (Members), so the whole register/heartbeat/expire loop runs under
// clock.Virtual in tests exactly like every other failure schedule.
//
// The registry is an ordinary exported object: host it on any Server (the
// driver's own, or a dedicated cmd/poolctl process) under RegistryName and
// nodes reach it over the same wire protocol as everything else.

// RegistryName is the reserved binding a Registry serves its verbs under.
const RegistryName = "!registry"

// Registry verbs served under RegistryName.
const (
	// regRegister announces a node: args are the node's dialable address
	// (string), its session epoch (int64) and its heartbeat interval in
	// nanoseconds (int64; 0 means the node sends no heartbeats and is
	// trusted until it deregisters). Registering an already known address
	// replaces the record — a restarted daemon re-registers with its fresh
	// epoch.
	regRegister = "Register"
	// regHeartbeat refreshes a node's liveness: same arguments as
	// regRegister. An unknown address is upserted, so a node that outlives
	// a registry restart re-appears on its next beat.
	regHeartbeat = "Heartbeat"
	// regDeregister removes a node's record: args[0] is the address. The
	// graceful half of departure; silent death is caught by missed beats.
	regDeregister = "Deregister"
	// RegMembers returns the membership snapshot as a flat list, three
	// entries per member: address (string), epoch (int64), healthy (bool).
	RegMembers = "Members"
	// RegNamespace allocates a fresh per-driver binding namespace and
	// returns its prefix (string) — the isolation seam that lets many
	// drivers share one pool without export-name collisions.
	RegNamespace = "Namespace"
)

// defaultMissFactor is how many heartbeat intervals may elapse since a
// node's last beat before Members reports it unhealthy.
const defaultMissFactor = 3

// Member is one row of the registry's membership snapshot.
type Member struct {
	// Addr is the node's dialable address (its registration key).
	Addr string
	// Epoch is the session epoch the node last announced — the identity of
	// its current incarnation.
	Epoch int64
	// Interval is the heartbeat interval the node declared; 0 means it
	// sends no beats and is trusted until it deregisters.
	Interval time.Duration
	// Healthy reports whether the node's last beat is recent enough
	// (within Interval × miss factor on the registry's clock).
	Healthy bool
}

type regMember struct {
	addr     string
	epoch    int64
	interval time.Duration
	lastBeat time.Time
}

// Registry tracks pool membership and health. Zero background activity:
// every health decision happens lazily at read time on the registry's
// clock, which is what makes the control plane deterministic under virtual
// time.
type Registry struct {
	clk  clock.Clock
	miss int

	mu      sync.Mutex
	members map[string]*regMember
	nsSeq   int64
}

// NewRegistry builds a registry on clk (nil selects the wall clock).
// missFactor is how many declared heartbeat intervals may pass without a
// beat before a member reads as unhealthy; values below 1 select
// defaultMissFactor.
func NewRegistry(clk clock.Clock, missFactor int) *Registry {
	if missFactor < 1 {
		missFactor = defaultMissFactor
	}
	return &Registry{
		clk:     clock.Or(clk),
		miss:    missFactor,
		members: make(map[string]*regMember),
	}
}

// Bind exports the registry's dispatch under RegistryName on s.
func (r *Registry) Bind(s *Server) { s.Export(RegistryName, r.dispatch) }

// register records (or replaces) a member, stamping its beat now.
func (r *Registry) register(addr string, epoch int64, interval time.Duration) {
	now := r.clk.Now()
	r.mu.Lock()
	r.members[addr] = &regMember{addr: addr, epoch: epoch, interval: interval, lastBeat: now}
	r.mu.Unlock()
}

// heartbeat refreshes a member's beat stamp, upserting unknown addresses
// (a registry restart must not orphan live nodes).
func (r *Registry) heartbeat(addr string, epoch int64, interval time.Duration) {
	now := r.clk.Now()
	r.mu.Lock()
	m := r.members[addr]
	if m == nil {
		m = &regMember{addr: addr}
		r.members[addr] = m
	}
	m.epoch = epoch
	m.interval = interval
	m.lastBeat = now
	r.mu.Unlock()
}

// deregister removes a member.
func (r *Registry) deregister(addr string) {
	r.mu.Lock()
	delete(r.members, addr)
	r.mu.Unlock()
}

// Members snapshots the membership, health evaluated lazily against the
// registry's clock, in stable (address) order.
func (r *Registry) Members() []Member {
	now := r.clk.Now()
	r.mu.Lock()
	out := make([]Member, 0, len(r.members))
	for _, m := range r.members {
		out = append(out, Member{
			Addr:     m.addr,
			Epoch:    m.epoch,
			Interval: m.interval,
			Healthy:  m.interval <= 0 || now.Sub(m.lastBeat) <= m.interval*time.Duration(r.miss),
		})
	}
	r.mu.Unlock()
	sortMembers(out)
	return out
}

func sortMembers(ms []Member) {
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j].Addr < ms[j-1].Addr; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}

// namespace allocates a fresh per-driver binding prefix. Prefixed names
// cannot collide across drivers because no driver ever sees another's
// sequence number.
func (r *Registry) namespace() string {
	r.mu.Lock()
	r.nsSeq++
	n := r.nsSeq
	r.mu.Unlock()
	return fmt.Sprintf("d%d/", n)
}

// dispatch is the registry's wire-facing DispatchFunc (bound under
// RegistryName by Bind).
func (r *Registry) dispatch(method string, args []any) ([]any, error) {
	switch method {
	case regRegister, regHeartbeat:
		addr, epoch, interval, err := beatArgs(method, args)
		if err != nil {
			return nil, err
		}
		if method == regRegister {
			r.register(addr, epoch, interval)
		} else {
			r.heartbeat(addr, epoch, interval)
		}
		return nil, nil
	case regDeregister:
		if len(args) < 1 {
			return nil, fmt.Errorf("rmi: %s wants (addr), got %d args", regDeregister, len(args))
		}
		addr, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("rmi: %s addr argument is %T, want string", regDeregister, args[0])
		}
		r.deregister(addr)
		return nil, nil
	case RegMembers:
		ms := r.Members()
		out := make([]any, 0, 3*len(ms))
		for _, m := range ms {
			out = append(out, m.Addr, m.Epoch, m.Healthy)
		}
		return out, nil
	case RegNamespace:
		return []any{r.namespace()}, nil
	default:
		return nil, fmt.Errorf("rmi: unknown registry verb %q", method)
	}
}

func beatArgs(verb string, args []any) (addr string, epoch int64, interval time.Duration, err error) {
	if len(args) < 3 {
		return "", 0, 0, fmt.Errorf("rmi: %s wants (addr, epoch, intervalNs), got %d args", verb, len(args))
	}
	addr, ok := args[0].(string)
	if !ok {
		return "", 0, 0, fmt.Errorf("rmi: %s addr argument is %T, want string", verb, args[0])
	}
	epoch, ok = args[1].(int64)
	if !ok {
		return "", 0, 0, fmt.Errorf("rmi: %s epoch argument is %T, want int64", verb, args[1])
	}
	ns, ok := args[2].(int64)
	if !ok {
		return "", 0, 0, fmt.Errorf("rmi: %s interval argument is %T, want int64", verb, args[2])
	}
	return addr, epoch, time.Duration(ns), nil
}

// ParseMembers decodes RegMembers' flat reply back into Member rows (the
// client-side half of the snapshot protocol; interval stays registry-side).
func ParseMembers(res []any) ([]Member, error) {
	if len(res)%3 != 0 {
		return nil, fmt.Errorf("rmi: malformed members reply (%d entries)", len(res))
	}
	out := make([]Member, 0, len(res)/3)
	for i := 0; i < len(res); i += 3 {
		addr, ok1 := res[i].(string)
		epoch, ok2 := res[i+1].(int64)
		healthy, ok3 := res[i+2].(bool)
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("rmi: malformed members reply at entry %d", i/3)
		}
		out = append(out, Member{Addr: addr, Epoch: epoch, Healthy: healthy})
	}
	return out, nil
}
