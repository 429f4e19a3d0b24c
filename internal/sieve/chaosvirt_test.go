package sieve

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aspectpar/internal/clock"
	"aspectpar/internal/par"
)

// This file is the virtual-time half of the chaos harness: the same
// fault-injected conformance cells, but every time-dependent path — reconnect
// backoffs, retry graces, drain windows, injected link delays — rides a
// clock.Virtual driven by its auto-advance pump, and every failure is armed
// by a request-count watermark fired from the server's own dispatch loop
// (rmi.WatchRequests), not a polled counter. The failure schedule of a cell
// is therefore a pure function of its seed: genScenario(kind, seed) yields
// the same script on every run and every machine, and the sweep asserts that
// by regenerating each script and requiring deep equality.
//
// Five scenario kinds cover the failure modes the wall-clocked matrix could
// not schedule deterministically:
//
//   - kill:           crash-restart one node at a scripted request boundary
//   - partition:      sever one node's links (dials succeed, sessions don't),
//                     heal at a second watermark on the survivor
//   - slowlink:       an asymmetric slow link — one node's dispatch delayed
//                     by virtual seconds, lifted at a later watermark
//   - multikill:      both nodes crash-restarted concurrently, each at its
//                     own watermark
//   - driver-restart: partition mid-window, then the whole deployment
//                     (driver and daemons) restarts on the same addresses
//                     and the rerun must be clean
//
// Four more kinds run the same cells over the elastic pool instead of a
// static address table — the driver discovers its workers through a live
// registry and the scripted event churns the membership mid-run
// (poolchaos_test.go):
//
//   - join:   a fresh daemon registers at a watermark and the farm widens
//   - leave:  a daemon shuts down gracefully (drains, deregisters) mid-run
//   - flap:   a partition silences links and heartbeats, then heals — the
//             cordon must lift without churning placements
//   - cordon: the partition never heals — missed beats cordon the node and
//             the drain migrates its exports to the survivors
//
// Every cell is oracle-checked against the hand-coded sequential sieve and
// must conserve work (Executed == Seeded + Splits) through its failures.
// Failures reproduce with CHAOS_SEED=<seed> go test -race -run
// TestChaosVirtualSweep ./internal/sieve.

// virtScenario is one scripted failure schedule — a pure function of
// (kind, seed), asserted by regeneration.
type virtScenario struct {
	Kind   string
	Victim int           // node the first event targets
	At     int64         // victim request watermark arming the first event
	HealAt int64         // survivor watermark arming the heal (partition)
	Delay  time.Duration // injected dispatch delay (slowlink, virtual time)
	At2    int64         // second watermark: lift delay / second kill
}

// genScenario derives kind's failure script from seed. It must stay free of
// wall-clock and global-state reads: determinism of the sweep rests on it.
func genScenario(kind string, seed int64) virtScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := virtScenario{Kind: kind, Victim: rng.Intn(2), At: int64(4 + rng.Intn(10))}
	switch kind {
	case "partition":
		sc.HealAt = sc.At + int64(4+rng.Intn(8))
	case "slowlink":
		sc.Delay = time.Duration(1+rng.Intn(8)) * 250 * time.Millisecond
		sc.At2 = sc.At + int64(3+rng.Intn(6))
	case "multikill":
		sc.At2 = int64(4 + rng.Intn(10))
	case "flap":
		sc.HealAt = sc.At + int64(4+rng.Intn(8))
	}
	return sc
}

// poolKind reports whether kind runs over the elastic pool (registry-backed
// membership) rather than the static address table.
func poolKind(kind string) bool {
	switch kind {
	case "join", "leave", "flap", "cordon":
		return true
	}
	return false
}

// virtParams shrinks the matrix cell so a 100-cell sweep stays affordable
// while each run still carries enough in-flight traffic (16 packs, window 2)
// for scripted watermarks to land mid-window. The sweep runs the wire-speed
// transport configuration — binary codec, two dispatch streams per peer — so
// every scenario also exercises the codec tag of each reconnected connection
// and per-stream replay across its failures.
func virtParams() Params {
	p := matrixParams()
	p.Max = 8_000
	p.Packs = 16
	p.Window = 2
	p.NetCodec = "binary"
	p.NetStreams = 2
	return p
}

// virtPolicy widens the reconnect budget: backoffs are free in virtual time,
// and a crash-restarted node must never exhaust the dial budget just because
// the pump outpaces a slow listener rebind.
func virtPolicy(cell chaosCell) par.FaultPolicy {
	pol := cell.policy
	pol.Reconnect.MaxAttempts = 40
	return pol
}

// TestChaosVirtualSweep runs the seeded virtual-time scenario matrix:
// 9 scenario kinds x 4 fault-injected conformance cells x 5 seeds = 180
// cells, each deterministic under its seed and oracle-checked. The first
// five kinds run over a static address table, the last four over the
// elastic pool with live registry membership.
func TestChaosVirtualSweep(t *testing.T) {
	requireLoopback(t)
	base := chaosSeed(t)
	p := virtParams()
	want, err := HandSequential(p.Max)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []string{"kill", "partition", "slowlink", "multikill", "driver-restart",
		"join", "leave", "flap", "cordon"}
	const seedsPerCell = 5
	// The sweep's size is a structural invariant (not a runtime count, which
	// -run filtering would shrink): the matrix must define >= 180 cells.
	if total := len(kinds) * len(chaosCells()) * seedsPerCell; total < 180 {
		t.Fatalf("sweep defines %d scenario cells, want >= 180", total)
	}
	for ki, kind := range kinds {
		for ci, cell := range chaosCells() {
			kind, cell, ki, ci := kind, cell, ki, ci
			t.Run(kind+"/"+cell.name, func(t *testing.T) {
				for s := 0; s < seedsPerCell; s++ {
					seed := base<<24 + int64(ki)<<16 + int64(ci)<<8 + int64(s)
					sc := genScenario(kind, seed)
					if again := genScenario(kind, seed); !reflect.DeepEqual(sc, again) {
						t.Fatalf("scenario script is not a pure function of its seed: %+v vs %+v", sc, again)
					}
					t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
						if poolKind(kind) {
							runPoolVirtCell(t, cell, sc, p, want, seed)
						} else {
							runVirtCell(t, cell, sc, p, want, seed)
						}
					})
				}
			})
		}
	}
}

// script runs a cell's scripted events, each on a goroutine of its own.
// halt tells them the run is over and waits until they have returned, so
// nothing a script starts — a joining daemon, say — comes up after the
// harness has closed its nodes.
type script struct {
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

func newScript() *script { return &script{stop: make(chan struct{})} }

func (s *script) run(event func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		event()
	}()
}

func (s *script) halt() {
	s.once.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// runVirtCell executes one scripted scenario cell and checks its oracle and
// accounting invariants.
func runVirtCell(t *testing.T, cell chaosCell, sc virtScenario, p Params, want []int32, seed int64) {
	v := clock.NewVirtual(time.Unix(0, 0))
	defer v.Close()
	v.AutoAdvance(500 * time.Microsecond)
	nodes := startChaosNodesClock(t, 2, v)
	p.NetAddrs = nodes.addrs
	p.Faults = virtPolicy(cell)
	p.Clock = v
	tag := fmt.Sprintf("seed=%d cell=%s scenario=%+v", seed, cell.name, sc)

	ev := newScript()
	defer ev.halt()

	var fired atomic.Bool // first scripted event landed before the run ended
	var kills []*killPlan
	survivor := 1 - sc.Victim
	switch sc.Kind {
	case "kill":
		kills = append(kills, nodes.armKill(sc.Victim, sc.At))
	case "partition":
		ev.run(func() {
			select {
			case <-ev.stop:
				return
			case <-nodes.node(sc.Victim).WatchRequests(sc.At):
			}
			nodes.node(sc.Victim).SetPartitioned(true)
			fired.Store(true)
			select {
			case <-ev.stop:
			case <-nodes.node(survivor).WatchRequests(sc.HealAt):
			}
			nodes.node(sc.Victim).SetPartitioned(false)
		})
	case "slowlink":
		ev.run(func() {
			select {
			case <-ev.stop:
				return
			case <-nodes.node(sc.Victim).WatchRequests(sc.At):
			}
			nodes.node(sc.Victim).SetDispatchDelay(sc.Delay)
			fired.Store(true)
			select {
			case <-ev.stop:
			case <-nodes.node(sc.Victim).WatchRequests(sc.At2):
			}
			nodes.node(sc.Victim).SetDispatchDelay(0)
		})
	case "multikill":
		kills = append(kills, nodes.armKill(sc.Victim, sc.At), nodes.armKill(survivor, sc.At2))
	case "driver-restart":
		ev.run(func() {
			// Pin the victim's current incarnation: under a starved scheduler
			// this goroutine can wake after the deployment restart below has
			// already swapped in a fresh node, and partitioning that fresh
			// node would sabotage the rerun it is supposed to stay clear of.
			n := nodes.node(sc.Victim)
			select {
			case <-ev.stop:
				return
			case <-n.WatchRequests(sc.At):
			}
			n.SetPartitioned(true)
			fired.Store(true)
		})
	default:
		t.Fatalf("unknown scenario kind %q", sc.Kind)
	}

	res, err := RunCombo(cell.combo, p)
	ev.halt()
	for i, k := range kills {
		if k.wait(t, tag) && i == 0 {
			fired.Store(true)
		}
	}
	if err != nil {
		t.Fatalf("%s: run failed: %v", tag, err)
	}
	assertVirtCell(t, tag, res, want, cell, sc, fired.Load())

	if sc.Kind == "driver-restart" {
		// The whole deployment restarts on the same addresses: fresh node
		// incarnations (empty registries, new epochs) and a fresh driver-side
		// middleware. The rerun must be exact and must carry no residue of
		// run 1's chaos — its fault counters stay zero.
		for i := range nodes.addrs {
			if err := nodes.crashRestart(i); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
		}
		res2, err := RunCombo(cell.combo, p)
		if err != nil {
			t.Fatalf("%s: rerun after deployment restart failed: %v", tag, err)
		}
		assertPrimesEqual(t, res2.Primes, want)
		if res2.Faults != (par.FaultStats{}) {
			t.Errorf("%s: rerun on a fresh deployment shows fault residue: %+v", tag, res2.Faults)
		}
	}
}

// assertVirtCell checks the invariants every scenario cell must uphold: the
// primes equal the sequential oracle, the scheduler conserves work through
// the failures, and a severing failure that provably landed left a trace in
// the fault counters.
func assertVirtCell(t *testing.T, tag string, res Result, want []int32, cell chaosCell, sc virtScenario, fired bool) {
	t.Helper()
	assertPrimesEqual(t, res.Primes, want)
	if st := res.Steals; st.Executed != st.Seeded+st.Splits {
		t.Errorf("%s: work conservation broken: Executed %d != Seeded %d + Splits %d",
			tag, st.Executed, st.Seeded, st.Splits)
	}
	f := res.Faults
	severed := fired && (sc.Kind == "kill" || sc.Kind == "multikill" || sc.Kind == "partition" ||
		sc.Kind == "driver-restart" || sc.Kind == "flap" || sc.Kind == "cordon")
	if severed && f.Reconnects+f.Failovers+f.DroppedPeers == 0 {
		// A failure scripted at the victim's last served request can land
		// after the middleware's final interaction with it — nothing to
		// recover, nothing counted. The oracle and conservation checks above
		// still bind; the trace is diagnostic.
		t.Logf("%s: severing failure left no fault trace (landed at the run's tail)", tag)
	}
	if f.DroppedPeers > 0 && f.Failovers == 0 {
		t.Errorf("%s: peer dropped without failing its objects over: %+v", tag, f)
	}
}
