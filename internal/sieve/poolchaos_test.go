package sieve

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aspectpar/internal/clock"
	"aspectpar/internal/exec"
	"aspectpar/internal/par"
	"aspectpar/internal/rmi"
)

// This file is the elastic-pool half of the virtual-time chaos harness: the
// same scripted, seeded scenario cells as chaosvirt_test.go, but the driver
// discovers its workers through a live registry (par.DialPool) instead of a
// static address table, and the scripted events churn the membership itself —
// daemons join mid-run, leave gracefully, flap, or go silent until the pool
// cordons and drains them. Registry, heartbeats, pool polling, drain graces
// and the fault layer's backoffs all ride one clock.Virtual.

// poolChaos is the registry-backed counterpart of chaosNodes: an in-process
// control plane plus heartbeating PrimeFilter daemons that register on
// Listen and deregister on graceful Close.
type poolChaos struct {
	t       *testing.T
	v       *clock.Virtual
	reg     *rmi.Registry
	regAddr string
	beat    time.Duration

	mu    sync.Mutex
	nodes []*rmi.Node
}

func startPoolChaos(t *testing.T, v *clock.Virtual, count int) *poolChaos {
	t.Helper()
	// A wide miss window (10 beat intervals): each heartbeat is a real TCP
	// round trip, and the auto-advance pump keeps jumping virtual time while
	// one is in flight — a tight window would cordon perfectly healthy
	// daemons whenever the wall-clock RTT lags the pump (-race slows it
	// plenty). The scripted failures silence beats for good, so they cross
	// any window.
	reg := rmi.NewRegistry(v, 10)
	regSrv := rmi.NewServer(rmi.WithClock(v))
	reg.Bind(regSrv)
	regAddr, err := regSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	t.Cleanup(regSrv.Close)
	c := &poolChaos{t: t, v: v, reg: reg, regAddr: regAddr, beat: 20 * time.Millisecond}
	// Registered after regSrv's cleanup, so the daemons close first and
	// their graceful deregistrations still find a live registry.
	t.Cleanup(func() {
		c.mu.Lock()
		nodes := append([]*rmi.Node(nil), c.nodes...)
		c.mu.Unlock()
		for _, n := range nodes {
			n.Close()
		}
	})
	for i := 0; i < count; i++ {
		if c.start() == nil {
			t.FailNow()
		}
	}
	c.awaitHealthy(count)
	return c
}

// start brings up one heartbeating daemon. It reports failure by returning
// nil rather than t.Fatal so the scripted watcher goroutines may call it.
func (c *poolChaos) start() *rmi.Node {
	node := rmi.NewNode(exec.Real(),
		rmi.WithClock(c.v), rmi.WithRegistry(c.regAddr), rmi.WithHeartbeat(c.beat))
	par.HostClass(node, DefineClass(par.NewDomain()))
	if _, err := node.Listen("127.0.0.1:0"); err != nil {
		c.t.Errorf("pool daemon listen: %v", err)
		return nil
	}
	c.mu.Lock()
	c.nodes = append(c.nodes, node)
	c.mu.Unlock()
	return node
}

func (c *poolChaos) node(i int) *rmi.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i]
}

// awaitHealthy blocks until n daemons have landed their first beat — DialPool
// refuses an empty membership, so every run waits out the registration race.
func (c *poolChaos) awaitHealthy(n int) {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		healthy := 0
		for _, m := range c.reg.Members() {
			if m.Healthy {
				healthy++
			}
		}
		if healthy >= n {
			return
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("only %d healthy members registered, want %d", healthy, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// poolChurnOpts is the sweep's control-plane tuning: a tight reconciliation
// loop (virtual time makes polling free), cordon on the second bad
// observation, and a drain grace long enough (in virtual time) for a flap —
// or a spuriously-missed beat — to heal before the migration fires, yet
// short enough that a genuinely dead member drains within the run.
func poolChurnOpts() []par.PoolOption {
	return []par.PoolOption{
		par.WithPoolPoll(5 * time.Millisecond),
		par.WithCordonAfter(2),
		par.WithDrainGrace(50 * time.Millisecond),
	}
}

// runPoolVirtCell executes one scripted membership-churn cell over the
// elastic pool and checks the same oracle and accounting invariants as the
// static-table cells.
func runPoolVirtCell(t *testing.T, cell chaosCell, sc virtScenario, p Params, want []int32, seed int64) {
	v := clock.NewVirtual(time.Unix(0, 0))
	defer v.Close()
	v.AutoAdvance(500 * time.Microsecond)

	// join starts narrow and widens mid-run; the other kinds start with two
	// daemons and lose (or nearly lose) one.
	initial := 2
	if sc.Kind == "join" {
		initial = 1
	}
	pc := startPoolChaos(t, v, initial)
	p.PoolAddr = pc.regAddr
	p.PoolOpts = poolChurnOpts()
	p.Faults = virtPolicy(cell)
	p.Clock = v
	tag := fmt.Sprintf("seed=%d cell=%s scenario=%+v", seed, cell.name, sc)

	ev := newScript()
	defer ev.halt()

	var fired atomic.Bool
	victim := sc.Victim
	survivor := 1 - victim
	switch sc.Kind {
	case "join":
		ev.run(func() {
			select {
			case <-ev.stop:
				return
			case <-pc.node(0).WatchRequests(sc.At):
			}
			if pc.start() != nil {
				fired.Store(true)
			}
		})
	case "leave":
		ev.run(func() {
			select {
			case <-ev.stop:
				return
			case <-pc.node(victim).WatchRequests(sc.At):
			}
			pc.node(victim).Close() // graceful: drains in-flight calls, deregisters
			fired.Store(true)
		})
	case "flap":
		ev.run(func() {
			select {
			case <-ev.stop:
				return
			case <-pc.node(victim).WatchRequests(sc.At):
			}
			pc.node(victim).SetPartitioned(true) // severs links AND silences beats
			fired.Store(true)
			select {
			case <-ev.stop:
			case <-pc.node(survivor).WatchRequests(sc.HealAt):
			}
			pc.node(victim).SetPartitioned(false)
		})
	case "cordon":
		ev.run(func() {
			select {
			case <-ev.stop:
				return
			case <-pc.node(victim).WatchRequests(sc.At):
			}
			// Never heals: missed beats cordon the node, the grace elapses,
			// and the drain migrates its exports to the survivor.
			pc.node(victim).SetPartitioned(true)
			fired.Store(true)
		})
	default:
		t.Fatalf("unknown pool scenario kind %q", sc.Kind)
	}

	res, err := RunCombo(cell.combo, p)
	ev.halt()
	if err != nil {
		t.Fatalf("%s: run failed: %v", tag, err)
	}
	assertVirtCell(t, tag, res, want, cell, sc, fired.Load())
}

// drillParams carries more traffic than the sweep cells so the drill's late
// joiner has work left to absorb when it arrives.
func drillParams() Params {
	p := virtParams()
	p.Packs = 24
	return p
}

// TestPoolChurnDrill is the acceptance drill for the elastic pool: a single
// seeded, registry-backed stealing run in which one daemon is crash-killed
// mid-window, a fresh daemon joins the registry and measurably absorbs packs
// (the farm grew onto it), and a third daemon goes silent until the pool
// cordons and drains it — oracle-equal and work-conserving throughout. The
// same test then runs the zero-config static address-table path and requires
// the identical prime set with zero fault residue.
func TestPoolChurnDrill(t *testing.T) {
	requireLoopback(t)
	base := chaosSeed(t)
	p := drillParams()
	want, err := HandSequential(p.Max)
	if err != nil {
		t.Fatal(err)
	}
	combo := Combo{PartStealingFarm, ConcMerged, DistNet}
	pol := par.FaultPolicy{
		Enabled:         true,
		CheckpointEvery: 4,
		Reconnect:       rmi.ReconnectPolicy{MaxAttempts: 40, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond},
	}

	// Whether the joiner absorbs work depends on how much remains when it
	// arrives; a seed whose kill lands at the run's tail leaves it nothing
	// to steal. Every attempt must pass the oracle; at least one must show
	// measurable absorption.
	absorbed := false
	for a := 0; a < 3 && !absorbed; a++ {
		absorbed = runChurnDrill(t, base<<8+int64(a), combo, pol, p, want)
	}
	if !absorbed {
		t.Error("late joiner absorbed no packs in any seeded drill")
	}

	// The static -net path must stay bit-identical under the same build:
	// same cell, same policy, a plain address table, no chaos — and no fault
	// residue.
	vs := clock.NewVirtual(time.Unix(0, 0))
	defer vs.Close()
	vs.AutoAdvance(500 * time.Microsecond)
	nodes := startChaosNodesClock(t, 2, vs)
	ps := p
	ps.NetAddrs = nodes.addrs
	ps.Faults = pol
	ps.Clock = vs
	res, err := RunCombo(combo, ps)
	if err != nil {
		t.Fatalf("static-table control run failed: %v", err)
	}
	assertPrimesEqual(t, res.Primes, want)
	residue := res.Faults
	residue.Checkpoints = 0 // routine maintenance, not failure recovery
	if residue != (par.FaultStats{}) {
		t.Errorf("static-table control run shows fault residue: %+v", res.Faults)
	}
}

// runChurnDrill runs one seeded churn schedule and reports whether the late
// joiner absorbed packs. Oracle and conservation failures fail the test.
func runChurnDrill(t *testing.T, seed int64, combo Combo, pol par.FaultPolicy, p Params, want []int32) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	killAt := int64(3 + rng.Intn(6))
	cordonAfter := int64(2 + rng.Intn(6))

	v := clock.NewVirtual(time.Unix(0, 0))
	defer v.Close()
	v.AutoAdvance(500 * time.Microsecond)
	pc := startPoolChaos(t, v, 3)
	p.PoolAddr = pc.regAddr
	p.PoolOpts = poolChurnOpts()
	p.Faults = pol
	p.Clock = v

	ev := newScript()
	defer ev.halt()

	var joiner atomic.Pointer[rmi.Node]
	ev.run(func() {
		// Daemon 1 crashes (no deregistration) at its killAt'th request and
		// a fresh daemon joins the registry the moment it is dead.
		select {
		case <-ev.stop:
			return
		case <-pc.node(1).WatchRequests(killAt):
		}
		pc.node(1).Abort()
		if n := pc.start(); n != nil {
			joiner.Store(n)
		}
		// Then daemon 2 goes silent after cordonAfter more requests land on
		// the survivor: missed beats cordon it and the drain migrates its
		// exports.
		select {
		case <-ev.stop:
			return
		case <-pc.node(0).WatchRequests(pc.node(0).Requests() + cordonAfter):
		}
		pc.node(2).SetPartitioned(true)
	})

	res, err := RunCombo(combo, p)
	ev.halt()
	tag := fmt.Sprintf("drill seed=%d (kill@%d, cordon+%d)", seed, killAt, cordonAfter)
	if err != nil {
		t.Fatalf("%s: run failed: %v", tag, err)
	}
	assertPrimesEqual(t, res.Primes, want)
	if st := res.Steals; st.Executed != st.Seeded+st.Splits {
		t.Errorf("%s: work conservation broken: Executed %d != Seeded %d + Splits %d",
			tag, st.Executed, st.Seeded, st.Splits)
	}

	j := joiner.Load()
	if j == nil {
		t.Logf("%s: kill watermark landed after the run's tail; no joiner", tag)
		return false
	}
	// An idle joiner serves only its replica's constructor and the final
	// gather (~2 requests); absorbed packs show up as Filter dispatches on
	// top of that.
	served := j.Requests()
	t.Logf("%s: late joiner served %d requests; faults %+v", tag, served, res.Faults)
	return served >= 3
}
