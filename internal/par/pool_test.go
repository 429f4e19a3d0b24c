package par

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aspectpar/internal/clock"
	"aspectpar/internal/exec"
	"aspectpar/internal/rmi"
)

// poolRig is the elastic-pool fixture: a registry servant on its own server
// plus worker node daemons hosting the Acc class, all on one virtual clock.
// Tests drive membership through the registry's wire verbs, as a daemon
// would (Register / Heartbeat with a chosen interval / Deregister), and pump
// the pool with manual Refresh (WithPoolPoll(0)), so every reconciliation
// step is deterministic.
type poolRig struct {
	t       *testing.T
	v       *clock.Virtual
	regSrv  *rmi.Server
	regAddr string
	regCli  *rmi.Client
	reg     *rmi.Stub

	mu    sync.Mutex
	nodes map[string]*rmi.Node
}

func startPoolRig(t *testing.T) *poolRig {
	t.Helper()
	r := &poolRig{t: t, v: clock.NewVirtual(time.Unix(0, 0)), nodes: make(map[string]*rmi.Node)}
	r.regSrv = rmi.NewServer(rmi.WithClock(r.v))
	rmi.NewRegistry(r.v, 2).Bind(r.regSrv)
	addr, err := r.regSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	r.regAddr = addr
	if r.regCli, err = rmi.Dial(addr); err != nil {
		t.Fatal(err)
	}
	if r.reg, err = r.regCli.Lookup(rmi.RegistryName); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r.regCli.Close()
		r.regSrv.Close()
		r.mu.Lock()
		nodes := r.nodes
		r.nodes = map[string]*rmi.Node{}
		r.mu.Unlock()
		for _, n := range nodes {
			n.Close()
		}
		r.v.Close()
	})
	return r
}

// addNode launches a worker daemon and registers it as a trusted member
// (interval 0: healthy until the test says otherwise).
func (r *poolRig) addNode() string {
	r.t.Helper()
	node := rmi.NewNode(exec.Real())
	HostClass(node, defineAcc(NewDomain(), nil, nil))
	addr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		r.t.Fatal(err)
	}
	r.mu.Lock()
	r.nodes[addr] = node
	r.mu.Unlock()
	r.verb("Register", addr, node.Epoch(), int64(0))
	return addr
}

// verb sends one registry verb over the wire.
func (r *poolRig) verb(name string, args ...any) {
	r.t.Helper()
	if _, err := r.reg.Invoke(name, args...); err != nil {
		r.t.Fatalf("registry %s: %v", name, err)
	}
}

// markUnhealthy rewrites a member's record with a tiny heartbeat interval
// and pushes virtual time past the miss window, so the next Members read
// reports it unhealthy — the deterministic stand-in for missed beats.
func (r *poolRig) markUnhealthy(addr string) {
	r.verb("Heartbeat", addr, int64(0), int64(time.Nanosecond))
	r.v.Advance(time.Millisecond)
}

// markHealthy restores a member to trusted (interval 0) health.
func (r *poolRig) markHealthy(addr string) {
	r.verb("Heartbeat", addr, int64(0), int64(0))
}

func memberByAddr(ms []PoolMember, addr string) (PoolMember, bool) {
	for _, m := range ms {
		if m.Addr == addr {
			return m, true
		}
	}
	return PoolMember{}, false
}

// TestPoolReconcile walks the pool's whole membership state machine under
// manual Refresh: join fires OnJoin and widens the table; consecutive
// unhealthy observations cordon after the threshold (placements skip the
// member); healing inside the drain grace lifts the cordon; a deregistered
// member is cordoned and drained without grace.
func TestPoolReconcile(t *testing.T) {
	r := startPoolRig(t)
	addrA, addrB := r.addNode(), r.addNode()

	pool, err := DialPool(r.regAddr,
		WithPoolPoll(0), WithDrainGrace(time.Hour),
		WithPoolNet(WithNetClock(r.v), WithFaultPolicy(FaultPolicy{Enabled: true})))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	m := pool.Middleware()
	if m.Nodes() != 2 {
		t.Fatalf("pool started with %d nodes, want 2", m.Nodes())
	}

	var joined []string
	pool.OnJoin(func(node exec.NodeID, addr string) { joined = append(joined, addr) })

	// A third daemon joins: the table widens and the hook fires.
	addrC := r.addNode()
	if err := pool.Refresh(); err != nil {
		t.Fatalf("refresh after join: %v", err)
	}
	if len(joined) != 1 || joined[0] != addrC {
		t.Fatalf("OnJoin saw %v, want [%s]", joined, addrC)
	}
	if m.Nodes() != 3 {
		t.Fatalf("table has %d nodes after the join, want 3", m.Nodes())
	}
	mc, ok := memberByAddr(pool.Members(), addrC)
	if !ok || mc.Cordoned {
		t.Fatalf("joined member %+v, want uncordoned", mc)
	}

	// B misses beats. One unhealthy observation is below the threshold...
	r.markUnhealthy(addrB)
	if err := pool.Refresh(); err != nil {
		t.Fatal(err)
	}
	if mb, _ := memberByAddr(pool.Members(), addrB); mb.Cordoned {
		t.Fatal("one unhealthy observation cordoned below the threshold")
	}
	// ...the second crosses it: cordoned, no new placements land there.
	if err := pool.Refresh(); err != nil {
		t.Fatal(err)
	}
	mb, _ := memberByAddr(pool.Members(), addrB)
	if !mb.Cordoned || mb.Drained {
		t.Fatalf("member after threshold: %+v, want cordoned and not yet drained (grace pending)", mb)
	}
	for _, id := range m.eligibleIDs() {
		if id == mb.Node {
			t.Fatal("cordoned node still eligible for placements")
		}
	}
	place := pool.Placement()
	for i := 0; i < 6; i++ {
		if n := place.NodeFor(i); n == mb.Node {
			t.Fatal("live placement selected a cordoned node")
		}
	}

	// B heals inside the hour-long grace: uncordoned, placements kept.
	r.markHealthy(addrB)
	if err := pool.Refresh(); err != nil {
		t.Fatal(err)
	}
	mb, _ = memberByAddr(pool.Members(), addrB)
	if mb.Cordoned || mb.Drained {
		t.Fatalf("member after healing inside the grace: %+v, want uncordoned and undrained", mb)
	}

	// C deregisters (graceful departure): cordon and drain with no grace.
	r.verb("Deregister", addrC)
	if err := pool.Refresh(); err != nil {
		t.Fatalf("refresh after departure: %v", err)
	}
	mc, _ = memberByAddr(pool.Members(), addrC)
	if !mc.Cordoned || !mc.Drained {
		t.Fatalf("departed member: %+v, want cordoned and drained", mc)
	}

	_, _ = addrA, addrB
}

// TestPoolDrainMigratesLiveNode pins the drain step against real state: two
// exports with mutated server-side sums live on the drained node; Drain
// migrates them to survivors with their state replayed, the sums read back
// intact, and further calls land on the new home.
func TestPoolDrainMigratesLiveNode(t *testing.T) {
	r := startFaultRig(t, 3, FaultPolicy{})
	a := r.export(t, "PS1", 1)
	b := r.export(t, "PS2", 1)
	if _, err := r.mw.Invoke(r.ctx, a, "Add", []any{int64(5)}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := r.mw.Invoke(r.ctx, b, "Add", []any{int64(7)}, false); err != nil {
		t.Fatal(err)
	}

	r.mw.setCordon(1, true)
	if err := r.mw.faults.drainNode(1); err != nil {
		t.Fatalf("drain of a live node: %v", err)
	}
	if n, ok := r.mw.NodeOf(a); !ok || n == 1 {
		t.Fatalf("export a still on node %d (placed=%v) after the drain", n, ok)
	}
	if n, ok := r.mw.NodeOf(b); !ok || n == 1 {
		t.Fatalf("export b still on node %d (placed=%v) after the drain", n, ok)
	}
	if got := r.sum(t, a); got != 5 {
		t.Errorf("a's sum after migration = %d, want 5", got)
	}
	if got := r.sum(t, b); got != 7 {
		t.Errorf("b's sum after migration = %d, want 7", got)
	}
	if _, err := r.mw.Invoke(r.ctx, a, "Add", []any{int64(1)}, false); err != nil {
		t.Fatal(err)
	}
	if got := r.sum(t, a); got != 6 {
		t.Errorf("a's sum after post-drain Add = %d, want 6", got)
	}
	st := r.mw.FaultStats()
	if st.Drains != 1 {
		t.Errorf("Drains = %d, want 1 (stats: %+v)", st.Drains, st)
	}
	// Draining an empty node (nothing placed there) is a no-op success —
	// the path a pool takes when an idle member departs.
	r.mw.setCordon(2, true)
	if err := r.mw.faults.drainNode(2); err != nil {
		t.Fatalf("drain of an empty node: %v", err)
	}
}

// TestPoolWatcherErrorsStayBounded takes the registry down for 1,000 polls
// of the watcher under clock.Virtual. Every pass fails, and the pool keeps
// the first error and a count of the rest, not a list that grows by one
// error per poll for as long as the registry stays down.
func TestPoolWatcherErrorsStayBounded(t *testing.T) {
	r := startPoolRig(t)
	r.addNode()
	const poll, polls = 100 * time.Millisecond, 1000
	pool, err := DialPool(r.regAddr, WithPoolPoll(poll), WithPoolNet(WithNetClock(r.v)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	r.v.AwaitWaits(1) // the watcher parked on its first poll
	r.regCli.Close()
	r.regSrv.Close()
	base := r.v.TotalWaits()
	for i := uint64(1); i <= polls; i++ {
		r.v.Advance(poll)
		r.v.AwaitWaits(base + i) // the pass failed, was kept, and the watcher parked again
	}
	err = pool.Err()
	if want := fmt.Sprintf("(and %d more failed reconciliation passes)", polls-1); err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("Err after %d failed polls = %v, want the first error %s", polls, err, want)
	}
	if err := pool.Err(); err != nil {
		t.Errorf("a second Err = %v, want nil: Err clears what it reports", err)
	}
}

// TestPoolTableChurnRace hammers the middleware's membership surface —
// addNode, setCordon, isCordoned, eligibleIDs, Nodes, NodeOf — from many
// goroutines while live fault-journaled traffic runs, pinning the
// concurrent-mutation guard under -race.
func TestPoolTableChurnRace(t *testing.T) {
	r := startFaultRig(t, 1, FaultPolicy{})
	obj := r.export(t, "PS1", 0)

	// Four more real daemons the churn goroutine feeds into the table.
	var extra []string
	for i := 0; i < 4; i++ {
		node := rmi.NewNode(exec.Real())
		HostClass(node, defineAcc(NewDomain(), nil, nil))
		addr, err := node.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		extra = append(extra, addr)
	}

	const adds = 200
	var wg sync.WaitGroup
	var stop atomic.Bool
	readerDone := make(chan struct{})
	wg.Add(2)
	go func() { // traffic: the sum oracle at the end proves nothing was lost
		defer wg.Done()
		for i := 0; i < adds; i++ {
			if _, err := r.mw.Invoke(r.ctx, obj, "Add", []any{int64(1)}, false); err != nil {
				t.Errorf("Add under churn: %v", err)
				return
			}
		}
	}()
	go func() { // writers: grow the table, flap cordons on the newcomers
		defer wg.Done()
		for round := 0; round < 50; round++ {
			for _, addr := range extra {
				id := r.mw.addNode(addr)
				r.mw.setCordon(id, round%2 == 0)
			}
		}
		for _, addr := range extra {
			r.mw.setCordon(r.mw.addNode(addr), false)
		}
	}()
	go func() { // readers: snapshot the views the placements consume
		defer close(readerDone)
		for !stop.Load() {
			_ = r.mw.eligibleIDs()
			_ = r.mw.Nodes()
			_ = r.mw.isCordoned(0)
			_, _ = r.mw.NodeOf(obj)
		}
	}()

	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(60 * time.Second):
		stop.Store(true)
		t.Fatal("churn goroutines wedged")
	}
	stop.Store(true)
	<-readerDone
	if got := r.sum(t, obj); got != adds {
		t.Fatalf("sum = %d, want %d after concurrent table churn", got, adds)
	}
}

// TestFaultCheckpointTruncation is the bounded-replay regression: with
// CheckpointEvery set, a Snapshot checkpoint truncates the journal history,
// and a crash afterwards reincarnates from Restore(checkpoint) plus the
// short tail — the sum oracle holds across the crash.
func TestFaultCheckpointTruncation(t *testing.T) {
	r := startFaultRig(t, 2, FaultPolicy{CheckpointEvery: 3})
	obj := r.export(t, "PS1", 0)
	var total int64
	for i := int64(1); i <= 7; i++ {
		if _, err := r.mw.Invoke(r.ctx, obj, "Add", []any{i}, false); err != nil {
			t.Fatal(err)
		}
		total += i
	}
	// The checkpoint probe rides the object's own dispatch stream and lands
	// asynchronously; wait for at least one to commit.
	deadline := time.Now().Add(10 * time.Second)
	for r.mw.FaultStats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint committed: %+v", r.mw.FaultStats())
		}
		time.Sleep(time.Millisecond)
	}

	// Crash and restart the node: reincarnation must replay the constructor,
	// Restore the checkpoint, then the post-checkpoint tail — not the full
	// history (which the truncation discarded).
	r.restart(0)
	if _, err := r.mw.Invoke(r.ctx, obj, "Add", []any{int64(100)}, false); err != nil {
		t.Fatalf("Add across the crash: %v", err)
	}
	total += 100
	if got := r.sum(t, obj); got != total {
		t.Fatalf("sum after checkpointed reincarnation = %d, want %d", got, total)
	}
	st := r.mw.FaultStats()
	if st.Checkpoints < 1 || st.Failovers == 0 {
		t.Errorf("stats after checkpointed recovery: %+v", st)
	}
}

// TestPoolNamespaceIsolation runs two pools (two "drivers") against one
// registry and the same daemons: both export under the same generated name
// and both must see only their own object — the per-driver namespace seam.
func TestPoolNamespaceIsolation(t *testing.T) {
	r := startPoolRig(t)
	r.addNode()

	class := defineAcc(NewDomain(), nil, nil)
	ctx := exec.Real()
	open := func() (*Pool, any) {
		t.Helper()
		pool, err := DialPool(r.regAddr,
			WithPoolPoll(0),
			WithPoolNet(WithNetClock(r.v), WithFaultPolicy(FaultPolicy{Enabled: true})))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pool.Close)
		obj, err := pool.Middleware().ExportNew(ctx, "PS1", 0, class, nil, nil)
		if err != nil {
			t.Fatalf("namespaced export: %v", err)
		}
		return pool, obj
	}
	poolA, objA := open()
	poolB, objB := open() // same name "PS1", different namespace: must not collide

	if _, err := poolA.Middleware().Invoke(ctx, objA, "Add", []any{int64(11)}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := poolB.Middleware().Invoke(ctx, objB, "Add", []any{int64(22)}, false); err != nil {
		t.Fatal(err)
	}
	sumOf := func(p *Pool, obj any) int64 {
		t.Helper()
		res, err := p.Middleware().Invoke(ctx, obj, "Sum", nil, false)
		if err != nil {
			t.Fatal(err)
		}
		return res[0].(int64)
	}
	if got := sumOf(poolA, objA); got != 11 {
		t.Fatalf("driver A reads %d, want 11 (cross-driver collision)", got)
	}
	if got := sumOf(poolB, objB); got != 22 {
		t.Fatalf("driver B reads %d, want 22 (cross-driver collision)", got)
	}
	// A scoped Reset must only clear the resetting driver's bindings: B's
	// object keeps serving.
	if err := poolA.Middleware().Reset(); err != nil {
		t.Fatalf("scoped reset: %v", err)
	}
	if got := sumOf(poolB, objB); got != 22 {
		t.Fatalf("driver B reads %d after A's reset, want 22", got)
	}
}
