package par

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"aspectpar/internal/clock"
	"aspectpar/internal/exec"
	"aspectpar/internal/rmi"
)

// faultRig is the fault-tolerance fixture: rmi.Node daemons hosting an
// accumulator class with observable server-side state ("Acc": Add mutates a
// sum, Sum reads it, SlowAdd parks mid-dispatch on a gate the test holds),
// so exactly-once semantics are asserted against real state, not call
// counts. Nodes can be blipped (DropConns), crashed (Abort) and restarted
// on the same address with a fresh domain — the process model of a node
// daemon dying and coming back.
type faultRig struct {
	t       *testing.T
	ctx     exec.Context
	addrs   []string
	mw      *NetRMI
	class   *Class
	started chan struct{}
	release chan struct{}

	mu    sync.Mutex
	nodes []*rmi.Node
}

type accServant struct{ sum int64 }

func defineAcc(dom *Domain, started chan struct{}, release chan struct{}) *Class {
	return dom.Define("Acc",
		func(args []any) (any, error) { return &accServant{}, nil },
		map[string]MethodBody{
			"Add": func(target any, args []any) ([]any, error) {
				a := target.(*accServant)
				a.sum += args[0].(int64)
				return []any{a.sum}, nil
			},
			"SlowAdd": func(target any, args []any) ([]any, error) {
				if started != nil {
					started <- struct{}{}
				}
				if release != nil {
					<-release
				}
				a := target.(*accServant)
				a.sum += args[0].(int64)
				return []any{a.sum}, nil
			},
			"Sum": func(target any, args []any) ([]any, error) {
				return []any{target.(*accServant).sum}, nil
			},
			// Snapshot/Restore opt the class into checkpointed replay
			// (FaultPolicy.CheckpointEvery): the checkpoint carries the sum,
			// reincarnation replays Restore plus the short journal tail.
			"Snapshot": func(target any, args []any) ([]any, error) {
				return []any{target.(*accServant).sum}, nil
			},
			"Restore": func(target any, args []any) ([]any, error) {
				target.(*accServant).sum = args[0].(int64)
				return nil, nil
			},
		}).Wire(int64(0))
}

// startFaultRig launches count loopback nodes and a fault-enabled NetRMI
// over them.
func startFaultRig(t *testing.T, count int, policy FaultPolicy) *faultRig {
	t.Helper()
	return startFaultRigClock(t, count, policy, nil)
}

// startFaultRigClock is startFaultRig with the middleware on clk (nil keeps
// the wall clock): reconnect backoffs, retry graces and RTT stamps all ride
// it, so tests can hold a recovery parked on a virtual clock.
func startFaultRigClock(t *testing.T, count int, policy FaultPolicy, clk clock.Clock) *faultRig {
	t.Helper()
	r := &faultRig{
		t:       t,
		ctx:     exec.Real(),
		started: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
	for i := 0; i < count; i++ {
		node := rmi.NewNode(exec.Real())
		HostClass(node, defineAcc(NewDomain(), r.started, r.release))
		addr, err := node.Listen("127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback TCP unavailable: %v", err)
		}
		r.nodes = append(r.nodes, node)
		r.addrs = append(r.addrs, addr)
	}
	policy.Enabled = true
	if policy.Reconnect.MaxAttempts == 0 {
		policy.Reconnect = rmi.ReconnectPolicy{MaxAttempts: 10, BaseBackoff: 2 * time.Millisecond}
	}
	mw, err := DialNet(NetAddressTable(r.addrs...), WithNetClock(clk), WithFaultPolicy(policy))
	if err != nil {
		t.Fatal(err)
	}
	r.mw = mw
	r.class = defineAcc(NewDomain(), nil, nil)
	t.Cleanup(func() {
		r.mw.Close()
		select {
		case <-r.release:
		default:
			close(r.release)
		}
		r.mu.Lock()
		nodes := append([]*rmi.Node(nil), r.nodes...)
		r.mu.Unlock()
		for _, n := range nodes {
			n.Close()
		}
	})
	return r
}

func (r *faultRig) node(i int) *rmi.Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nodes[i]
}

// restart crashes node i and brings up a fresh incarnation — new epoch, new
// (empty) domain — on the same address.
func (r *faultRig) restart(i int) {
	r.mu.Lock()
	old := r.nodes[i]
	r.mu.Unlock()
	old.Abort()
	node := rmi.NewNode(exec.Real())
	HostClass(node, defineAcc(NewDomain(), r.started, r.release))
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		if _, err = node.Listen(r.addrs[i]); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		r.t.Fatalf("restart node %d on %s: %v", i, r.addrs[i], err)
	}
	r.mu.Lock()
	r.nodes[i] = node
	r.mu.Unlock()
}

// bound reports whether node i binds name, probed the way a client sees
// it: a Lookup on a fresh connection succeeds, or fails as not bound. Any
// other failure fails the test, so a negative probe cannot pass on a
// transport error. rmi wraps the not-bound error unexported; its text is
// what a client outside the package can tell it by.
func (r *faultRig) bound(i int, name string) bool {
	r.t.Helper()
	c, err := rmi.Dial(r.addrs[i])
	if err != nil {
		r.t.Fatalf("dial node %d: %v", i, err)
	}
	defer c.Close()
	_, err = c.Lookup(name)
	if err != nil && !strings.Contains(err.Error(), "rmi: name not bound") {
		r.t.Fatalf("lookup %s on node %d: %v", name, i, err)
	}
	return err == nil
}

func (r *faultRig) export(t *testing.T, name string, node exec.NodeID) any {
	t.Helper()
	obj, err := r.mw.ExportNew(r.ctx, name, node, r.class, nil, nil)
	if err != nil {
		t.Fatalf("export %s: %v", name, err)
	}
	return obj
}

func (r *faultRig) sum(t *testing.T, obj any) int64 {
	t.Helper()
	res, err := r.mw.Invoke(r.ctx, obj, "Sum", nil, false)
	if err != nil {
		t.Fatalf("Sum: %v", err)
	}
	return res[0].(int64)
}

// reclaimAll receives n completions and returns their errors.
func reclaimAll(ctx exec.Context, done exec.Chan, n int) []error {
	errs := make([]error, 0, n)
	for i := 0; i < n; i++ {
		v, _ := done.Recv(ctx)
		if _, err := v.(*Completion).Reclaim(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// TestFaultReconnectReplaysUnacked is the transport-blip path: a window of
// pipelined calls — one provably mid-dispatch — loses its connection; the
// middleware reconnects into the same epoch, replays the unacknowledged
// journal, the server's dedupe absorbs the call it already applied, and
// every completion succeeds with the state mutated exactly once.
func TestFaultReconnectReplaysUnacked(t *testing.T) {
	r := startFaultRig(t, 1, FaultPolicy{})
	obj := r.export(t, "PS1", 0)
	done := r.ctx.NewChan(8)
	r.mw.InvokeAsync(r.ctx, obj, "SlowAdd", []any{int64(1)}, false, done)
	r.mw.InvokeAsync(r.ctx, obj, "Add", []any{int64(2)}, false, done)
	r.mw.InvokeAsync(r.ctx, obj, "Add", []any{int64(4)}, false, done)
	<-r.started // the first call is provably dispatching at the node
	r.node(0).DropConns()
	close(r.release)
	if errs := reclaimAll(r.ctx, done, 3); len(errs) != 0 {
		t.Fatalf("completions failed across a transport blip: %v", errs)
	}
	if got := r.sum(t, obj); got != 7 {
		t.Errorf("sum = %d, want 7 (replay applied calls twice or lost one)", got)
	}
	st := r.mw.FaultStats()
	if st.Reconnects == 0 || st.Replays == 0 {
		t.Errorf("recovery left no trace: %+v", st)
	}
	if err := r.mw.Join(r.ctx); err != nil {
		t.Errorf("Join after recovery: %v", err)
	}
	if !r.mw.Quiet() {
		t.Error("middleware not quiet after recovery settled")
	}
}

// TestFaultCrashDuringFlush is the satellite edge case: the connection dies
// while Join is draining the one-way window. Join must ride through the
// recovery — reconnect, replay — and return clean, with every one-way call
// applied exactly once.
func TestFaultCrashDuringFlush(t *testing.T) {
	r := startFaultRig(t, 1, FaultPolicy{})
	obj := r.export(t, "PS1", 0)
	// One-way void traffic; the first parks mid-dispatch so the window is
	// provably non-empty when Join starts and the connection dies under it.
	if _, err := r.mw.Invoke(r.ctx, obj, "SlowAdd", []any{int64(1)}, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := r.mw.Invoke(r.ctx, obj, "Add", []any{int64(10)}, true); err != nil {
			t.Fatal(err)
		}
	}
	<-r.started
	joined := make(chan error, 1)
	go func() { joined <- r.mw.Join(r.ctx) }()
	// The window is provably open — SlowAdd is parked mid-dispatch on a gate
	// this test holds — so the middleware cannot be quiet and Join cannot
	// have returned. No timed grace needed.
	if r.mw.Quiet() {
		t.Fatal("middleware quiet while a one-way call is provably parked mid-dispatch")
	}
	select {
	case err := <-joined:
		t.Fatalf("Join returned %v while the one-way window was provably open", err)
	default:
	}
	r.node(0).DropConns() // the crash mid-Flush
	close(r.release)
	if err := <-joined; err != nil {
		t.Fatalf("Join across a crash-during-flush: %v", err)
	}
	if got := r.sum(t, obj); got != 41 {
		t.Errorf("sum = %d, want 41 (one-way replay not exactly-once)", got)
	}
}

// TestFaultNodeRestartReincarnates is the crash-and-restart drill: the node
// dies with accumulated state and comes back empty on the same address.
// Recovery must detect the new epoch, re-run the creation protocol, replay
// the applied-call history — reconstructing the state — and then the
// orphaned in-flight call, exactly once each.
func TestFaultNodeRestartReincarnates(t *testing.T) {
	r := startFaultRig(t, 1, FaultPolicy{})
	obj := r.export(t, "PS1", 0)
	done := r.ctx.NewChan(8)
	for _, d := range []int64{1, 2, 4} {
		r.mw.InvokeAsync(r.ctx, obj, "Add", []any{d}, false, done)
	}
	if errs := reclaimAll(r.ctx, done, 3); len(errs) != 0 {
		t.Fatal(errs)
	}
	r.restart(0) // state (sum=7) dies with the incarnation
	r.mw.InvokeAsync(r.ctx, obj, "Add", []any{int64(8)}, false, done)
	if errs := reclaimAll(r.ctx, done, 1); len(errs) != 0 {
		t.Fatalf("completion after restart failed: %v", errs)
	}
	if got := r.sum(t, obj); got != 15 {
		t.Errorf("sum = %d, want 15 (history replay did not reconstruct state)", got)
	}
	st := r.mw.FaultStats()
	if st.Failovers == 0 {
		t.Errorf("no reincarnation counted: %+v", st)
	}
	if err := r.mw.Join(r.ctx); err != nil {
		t.Errorf("Join: %v", err)
	}
}

// TestFaultFailoverToSurvivor kills a node for good: its object must be
// re-created on the surviving node — placement remapped, NodeOf updated —
// with its state reconstructed and the orphaned call replayed there.
func TestFaultFailoverToSurvivor(t *testing.T) {
	r := startFaultRig(t, 2, FaultPolicy{Reconnect: rmi.ReconnectPolicy{MaxAttempts: 2, BaseBackoff: 2 * time.Millisecond}})
	obj := r.export(t, "PS1", 1)
	done := r.ctx.NewChan(8)
	for _, d := range []int64{1, 2} {
		r.mw.InvokeAsync(r.ctx, obj, "Add", []any{d}, false, done)
	}
	if errs := reclaimAll(r.ctx, done, 2); len(errs) != 0 {
		t.Fatal(errs)
	}
	r.node(1).Abort() // gone for good: no restart
	r.mw.InvokeAsync(r.ctx, obj, "Add", []any{int64(4)}, false, done)
	if errs := reclaimAll(r.ctx, done, 1); len(errs) != 0 {
		t.Fatalf("completion after failover failed: %v", errs)
	}
	if node, ok := r.mw.NodeOf(obj); !ok || node != 0 {
		t.Errorf("NodeOf after failover = %v,%v, want 0,true (placement not remapped)", node, ok)
	}
	if got := r.sum(t, obj); got != 7 {
		t.Errorf("sum = %d, want 7 (failover lost state or replayed twice)", got)
	}
	st := r.mw.FaultStats()
	if st.Failovers == 0 || st.DroppedPeers == 0 {
		t.Errorf("failover left no trace: %+v", st)
	}
	if err := r.mw.Join(r.ctx); err != nil {
		t.Errorf("Join after failover: %v", err)
	}
}

// TestFaultNoSurvivorFailsFastTyped is the satellite edge case: the only
// node hosting the class dies and nothing can take its objects. The pending
// call fails and Join surfaces a typed noFailoverError — fail fast, not a
// hang, not silence.
func TestFaultNoSurvivorFailsFastTyped(t *testing.T) {
	r := startFaultRig(t, 1, FaultPolicy{Reconnect: rmi.ReconnectPolicy{MaxAttempts: 2, BaseBackoff: 2 * time.Millisecond}})
	obj := r.export(t, "PS1", 0)
	r.node(0).Abort()
	done := r.ctx.NewChan(2)
	r.mw.InvokeAsync(r.ctx, obj, "Add", []any{int64(1)}, false, done)
	v, _ := done.Recv(r.ctx)
	if _, err := v.(*Completion).Reclaim(r.ctx); err == nil {
		t.Error("orphaned call reported success with no survivor")
	}
	err := r.mw.Join(r.ctx)
	var nfe *noFailoverError
	if !errors.As(err, &nfe) {
		t.Fatalf("Join = %v, want a noFailoverError", err)
	}
	if nfe.Object != "PS1" || nfe.Class != "Acc" {
		t.Errorf("typed error mislabelled: %+v", nfe)
	}
}

// TestFaultResetDoesNotResurrect is the CtlReset ↔ reconnect race
// regression: a driver reset racing a peer's recovery must not resurrect
// pre-reset exports. The middleware runs on a virtual clock nobody advances,
// so the recovery is provably parked in its dial backoff — the race window
// is held open, not approximated with a sleep — when Reset invalidates the
// journal generation; only then is time released. When the node comes back,
// nothing may re-export PS1.
func TestFaultResetDoesNotResurrect(t *testing.T) {
	for _, reset := range []bool{false, true} {
		name := "with-reset"
		if !reset {
			name = "control-without-reset"
		}
		t.Run(name, func(t *testing.T) {
			v := clock.NewVirtual(time.Unix(0, 0))
			defer v.Close()
			r := startFaultRigClock(t, 1, FaultPolicy{
				Reconnect: rmi.ReconnectPolicy{MaxAttempts: 40, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 10 * time.Millisecond},
			}, v)
			obj := r.export(t, "PS1", 0)
			r.node(0).Abort() // down: recovery will park in dial backoff
			done := r.ctx.NewChan(2)
			r.mw.InvokeAsync(r.ctx, obj, "Add", []any{int64(1)}, false, done)
			v.AwaitWaits(1) // recovery provably parked in its first backoff
			if reset {
				r.mw.Reset() // errors expected: the node is down mid-reset
			}
			r.restart(0)
			v.AutoAdvance(100 * time.Microsecond) // release the backoff: recovery re-dials now
			cv, _ := done.Recv(r.ctx)
			_, err := cv.(*Completion).Reclaim(r.ctx)
			if reset {
				// The journal drained at Reset; the completion must carry the
				// reset marker, not a replayed success.
				if err == nil {
					t.Error("pre-reset call reported success after Reset drained the journal")
				}
				// Abandoned flips once the recovery observed the stale
				// generation and gave up — after that, no replay can follow.
				waitUntil(t, "recovery abandoned the stale generation", func() bool {
					return r.mw.FaultStats().Abandoned > 0
				})
				if r.bound(0, "PS1") {
					t.Error("reset raced recovery and PS1 was resurrected on the fresh node")
				}
			} else {
				if err != nil {
					t.Fatalf("control run: replay after restart failed: %v", err)
				}
				// The completion arrived, so the replay ran — and the replay
				// re-exports before it re-executes: PS1 must be visible now.
				if !r.bound(0, "PS1") {
					t.Error("control run: recovery never re-exported PS1 — the race harness is inert")
				}
			}
		})
	}
}

// waitUntil spins (yielding the processor) until cond holds — a liveness
// wait on another goroutine's progress, not a timing assumption; the
// deadline only bounds a failing test.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		runtime.Gosched()
	}
}
