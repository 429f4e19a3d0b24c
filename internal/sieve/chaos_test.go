package sieve

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aspectpar/internal/aspect"
	"aspectpar/internal/clock"
	"aspectpar/internal/exec"
	"aspectpar/internal/par"
	"aspectpar/internal/rmi"
)

// This file is the chaos half of the net conformance harness: the same
// module-matrix cells, re-run with seeded fault injection. A node daemon dies
// after a randomized-but-seeded number of served requests — mid window, mid
// export, mid gather, wherever the seed lands, with the call it was
// dispatching unanswered — and a fresh incarnation restarts on the same
// address. The run must still match the
// hand-coded oracle exactly (exactly-once completion: no pack lost, none
// filtered twice) and the scheduler's work-conservation invariant
// Executed == Seeded + Splits must hold through the crash.
//
// The seed comes from CHAOS_SEED (default 1); every failure message carries
// the seed and kill point, so CI failures reproduce locally with
// CHAOS_SEED=<seed> go test -race -run TestChaos ./internal/sieve.

// chaosSeed returns the harness seed (CHAOS_SEED, default 1).
func chaosSeed(t *testing.T) int64 {
	s := os.Getenv("CHAOS_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED=%q: %v", s, err)
	}
	return v
}

// chaosNodes is a restartable set of loopback node daemons hosting
// PrimeFilter, each on its own fresh domain.
type chaosNodes struct {
	t     *testing.T
	clk   clock.Clock // nil keeps the wall clock
	addrs []string
	kills []atomic.Pointer[killPlan] // per node slot; nil while unarmed

	mu    sync.Mutex
	nodes []*rmi.Node
}

// killPlan is one armed node kill. The kill is an event at its kill point,
// not something a watcher does afterwards: the victim severs its connections
// inside the dispatch of the first servant call (or construction) it runs at
// or past its at-th request, before that call's reply is written. So "fired"
// implies the driver lost a call it was waiting on and had to recover — a kill
// can no longer land behind the victim's last call and leave no trace.
type killPlan struct {
	at        int64
	fired     atomic.Bool
	restarted chan struct{} // closed once the fresh incarnation is up (or failed to come up)
	err       error         // the restart's error; read after restarted
}

// wait blocks until a fired kill's restart has finished, and reports whether
// the kill fired at all. Call it after the run: nothing dispatches any more,
// so an unfired plan stays unfired.
func (k *killPlan) wait(t *testing.T, tag string) bool {
	if !k.fired.Load() {
		return false
	}
	<-k.restarted
	if k.err != nil {
		t.Errorf("%s: %v", tag, k.err)
	}
	return true
}

func startChaosNodes(t *testing.T, count int) *chaosNodes {
	t.Helper()
	return startChaosNodesClock(t, count, nil)
}

// startChaosNodesClock is startChaosNodes with every node daemon (including
// later crash-restarted incarnations) on clk, so injected delays and drain
// windows run in virtual time.
func startChaosNodesClock(t *testing.T, count int, clk clock.Clock) *chaosNodes {
	t.Helper()
	c := &chaosNodes{t: t, clk: clk, kills: make([]atomic.Pointer[killPlan], count)}
	for i := 0; i < count; i++ {
		node := c.newNode(i)
		addr, err := node.Listen("127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback TCP unavailable: %v", err)
		}
		c.nodes = append(c.nodes, node)
		c.addrs = append(c.addrs, addr)
	}
	t.Cleanup(func() {
		c.mu.Lock()
		nodes := append([]*rmi.Node(nil), c.nodes...)
		c.mu.Unlock()
		for _, n := range nodes {
			n.Close()
		}
	})
	return c
}

// newNode builds one incarnation for slot i: a daemon hosting PrimeFilter on
// a fresh domain, with the slot's kill point woven around every servant
// dispatch — node-side advice, the only place from which a kill can land
// between a call's dispatch and its reply.
func (c *chaosNodes) newNode(i int) *rmi.Node {
	node := rmi.NewNode(exec.Real(), rmi.WithClock(c.clk))
	dom := par.NewDomain()
	dom.Weaver().Plug(aspect.NewAspect("chaos-kill", 100).Around(
		aspect.Or(aspect.New("PrimeFilter"), aspect.Call("PrimeFilter", "*")),
		func(jp *aspect.JoinPoint, proceed aspect.ProceedFunc) ([]any, error) {
			if k := c.kills[i].Load(); k != nil && node.Requests() >= k.at && k.fired.CompareAndSwap(false, true) {
				crashFromDispatch(node, c.addrs[i], func() {
					k.err = c.crashRestart(i)
					close(k.restarted)
				})
			}
			return proceed(jp.Args)
		}))
	par.HostClass(node, DefineClass(dom))
	return node
}

// crashFromDispatch is a process crash as seen from outside, staged from
// inside one of the node's own dispatches: when it returns, the node's
// address refuses connections and every connection it had is severed — so
// the reply of the call being dispatched can never be written — exactly the
// order a dying process produces. restart must Abort the node (and may bring
// up a successor); it runs on its own goroutine because Abort waits for the
// dispatches in progress, this one included, and therefore cannot be waited
// for here. What can be waited for is its first effect, the listener closing:
// no client may find the dying incarnation still accepting, reconnect into
// it, and be cut off a second time mid-handshake.
func crashFromDispatch(node *rmi.Node, addr string, restart func()) {
	go restart()
	for {
		// A SYN that meets the listener mid-close can be dropped rather than
		// refused, and its retransmission is a second away: never wait for one.
		probe, err := net.DialTimeout("tcp", addr, 2*time.Millisecond)
		if err == nil {
			probe.Close()
			runtime.Gosched()
			continue
		}
		var timeout interface{ Timeout() bool }
		if !errors.As(err, &timeout) || !timeout.Timeout() {
			break // refused: the successor cannot be listening yet, Abort still waits for us
		}
	}
	node.DropConns() // Abort is doing the same; make sure it is done before the reply is attempted
}

func (c *chaosNodes) node(i int) *rmi.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i]
}

// crashRestart kills node i (abandoning everything in flight) and brings up
// a fresh incarnation — new epoch, empty registry — on the same address.
func (c *chaosNodes) crashRestart(i int) error {
	c.mu.Lock()
	old := c.nodes[i]
	c.mu.Unlock()
	old.Abort()
	node := c.newNode(i)
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		if _, err = node.Listen(c.addrs[i]); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("restart node %d on %s: %w", i, c.addrs[i], err)
	}
	c.mu.Lock()
	c.nodes[i] = node
	c.mu.Unlock()
	return nil
}

// armKill scripts the crash-restart of victim at its killAt-th served
// request — a count kept by the server's own dispatch loop, so the kill lands
// at the same request boundary on every run (see killPlan).
func (c *chaosNodes) armKill(victim int, killAt int64) *killPlan {
	k := &killPlan{at: killAt, restarted: make(chan struct{})}
	c.kills[victim].Store(k)
	return k
}

// chaosCell is one fault-injected conformance cell: a matrix combo plus the
// fault policy it runs under.
type chaosCell struct {
	name   string
	combo  Combo
	policy par.FaultPolicy
}

func chaosCells() []chaosCell {
	fast := rmi.ReconnectPolicy{MaxAttempts: 20, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond}
	return []chaosCell{
		// The windowed self-scheduling farms: pipelined in-flight calls are
		// journaled and replayed across the crash.
		{"dynamic-replay", Combo{PartDynamicFarm, ConcMerged, DistNet},
			par.FaultPolicy{Enabled: true, Reconnect: fast}},
		{"stealing-replay", Combo{PartStealingFarm, ConcMerged, DistNet},
			par.FaultPolicy{Enabled: true, Reconnect: fast}},
		// The static farm's synchronous calls: one journaled call in flight
		// per worker, replayed (or rebuilt on a new incarnation) across the
		// crash.
		{"static-sync", Combo{PartFarm, ConcNone, DistNet},
			par.FaultPolicy{Enabled: true, Reconnect: fast}},
		// The static farm's one-way void window: fire-and-forget sends
		// journaled until their acks, replayed with server-side dedupe.
		{"static-oneway", Combo{PartFarm, ConcAsync, DistNet},
			par.FaultPolicy{Enabled: true, Reconnect: fast}},
	}
}

// TestChaosMatrix re-runs net conformance cells under seeded node kills:
// a node daemon dies mid-run at a scripted request count and restarts; the
// primes must still equal the hand-coded oracle and the scheduler's
// accounting must conserve work through the crash.
func TestChaosMatrix(t *testing.T) {
	requireLoopback(t)
	seed := chaosSeed(t)
	p := matrixParams()
	p.Packs = 24 // enough in-flight traffic that scripted kills land mid-window
	p.Window = 2
	p.NetStreams = 2 // crashes must be survivable with multiplexed streams, too
	want, err := HandSequential(p.Max)
	if err != nil {
		t.Fatal(err)
	}
	const killPoints = 3
	for ci, cell := range chaosCells() {
		cell := cell
		ci := ci
		t.Run(cell.name, func(t *testing.T) {
			for k := 0; k < killPoints; k++ {
				rng := rand.New(rand.NewSource(seed<<16 + int64(ci)<<8 + int64(k)))
				nodes := startChaosNodes(t, 2)
				victim := rng.Intn(2)
				killAt := int64(4 + rng.Intn(10))
				tag := fmt.Sprintf("seed=%d cell=%s kill=%d victim=%d killAt=%d", seed, cell.name, k, victim, killAt)
				kill := nodes.armKill(victim, killAt)

				pc := p
				pc.NetAddrs = nodes.addrs
				pc.Faults = cell.policy
				res, err := RunCombo(cell.combo, pc)
				killed := kill.wait(t, tag)
				if err != nil {
					t.Fatalf("%s: run failed: %v", tag, err)
				}
				assertPrimesEqual(t, res.Primes, want)
				if st := res.Steals; st.Executed != st.Seeded+st.Splits {
					t.Errorf("%s: work conservation broken: Executed %d != Seeded %d + Splits %d",
						tag, st.Executed, st.Seeded, st.Splits)
				}
				if killed {
					f := res.Faults
					if f.Reconnects+f.Failovers+f.DroppedPeers == 0 {
						t.Errorf("%s: node was killed mid-run but FaultStats is empty: %+v", tag, f)
					}
					if f.DroppedPeers > 0 && f.Failovers == 0 {
						t.Errorf("%s: peer dropped without failing its objects over: %+v", tag, f)
					}
					t.Logf("%s: recovered (stats %+v)", tag, f)
				} else {
					t.Logf("%s: the victim dispatched nothing at or past its kill point (shorter run than kill point)", tag)
				}
			}
		})
	}
}
