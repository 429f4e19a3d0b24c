package mandel

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aspectpar/internal/aspect"
	"aspectpar/internal/cluster"
	"aspectpar/internal/exec"
	"aspectpar/internal/par"
	"aspectpar/internal/rmi"
	"aspectpar/internal/sim"
)

func TestSpecValidation(t *testing.T) {
	if _, err := NewWorker(Spec{}); err == nil {
		t.Error("zero spec should fail")
	}
	if _, err := NewWorker(DefaultSpec(8, 8)); err != nil {
		t.Error(err)
	}
}

func TestKnownPoints(t *testing.T) {
	spec := DefaultSpec(64, 48)
	img := Sequential(spec)
	// The origin (0,0) is inside the set: iteration count = MaxIter.
	row := int(float64(spec.Height-1) * (0 - spec.YMin) / (spec.YMax - spec.YMin))
	col := int(float64(spec.Width-1) * (0 - spec.XMin) / (spec.XMax - spec.XMin))
	if got := img[row][col]; int(got) != spec.MaxIter {
		t.Errorf("origin iter = %d, want %d", got, spec.MaxIter)
	}
	// The top-left corner (-2, -1.2) escapes immediately-ish.
	if img[0][0] > 4 {
		t.Errorf("corner iter = %d, want small", img[0][0])
	}
}

func TestFarmMatchesSequential(t *testing.T) {
	spec := DefaultSpec(40, 24)
	want := Sequential(spec)
	for _, sched := range []Schedule{Static, Dynamic, Stealing} {
		w := Build(spec, 3, Config{Schedule: sched})
		got, err := w.Render(exec.Real(), spec)
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		for r := range want {
			for c := range want[r] {
				if got[r][c] != want[r][c] {
					t.Fatalf("%s: pixel (%d,%d) = %d, want %d",
						sched, r, c, got[r][c], want[r][c])
				}
			}
		}
	}
}

func TestRowsDistributedAcrossWorkers(t *testing.T) {
	spec := DefaultSpec(16, 12)
	w := Build(spec, 4, Config{Schedule: Static})
	if _, err := w.Render(exec.Real(), spec); err != nil {
		t.Fatal(err)
	}
	busy := 0
	total := 0
	for _, obj := range w.Farm.Managed() {
		n := len(obj.(*Worker).Rows())
		total += n
		if n > 0 {
			busy++
		}
	}
	if total != spec.Height {
		t.Errorf("rows rendered = %d, want %d", total, spec.Height)
	}
	if busy < 2 {
		t.Errorf("only %d workers rendered rows", busy)
	}
}

func TestWorkerOps(t *testing.T) {
	w, _ := NewWorker(DefaultSpec(8, 8))
	w.Render([]int32{0})
	if w.TakeOps() == 0 {
		t.Error("Render should count operations")
	}
}

// runOverRMI renders the spec with the stealing schedule distributed over
// simulated RMI on the paper testbed and returns the image, the elapsed
// virtual time and the steal counters.
func runOverRMI(t *testing.T, spec Spec, workers, window int) ([][]uint16, time.Duration, par.StealStats) {
	t.Helper()
	cl := cluster.New(sim.NewEngine(), cluster.PaperTestbed())
	w := Build(spec, workers, Config{
		Schedule:   Stealing,
		Window:     window,
		Distribute: par.NewSimRMI(cl),
		Placement:  par.RoundRobin(1, 6),
		NsPerOp:    50,
	})
	var img [][]uint16
	err := cl.Run(func(ctx exec.Context) {
		var rerr error
		img, rerr = w.Render(ctx, spec)
		if rerr != nil {
			t.Error(rerr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return img, cl.Elapsed(), w.Farm.StealStats()
}

// TestStealingWindowedOverRMI is the roadmap's "apply the stealing schedule
// to mandel" item end to end: rows are the natural skewed workload, bands
// split on demand (steals happen), and the windowed dispatch beats the
// synchronous per-pack protocol on the same schedule under virtual time.
func TestStealingWindowedOverRMI(t *testing.T) {
	spec := DefaultSpec(64, 96)
	want := Sequential(spec)
	imgSync, eSync, _ := runOverRMI(t, spec, 6, 1)
	imgWin, eWin, st := runOverRMI(t, spec, 6, 0)
	for _, img := range [][][]uint16{imgSync, imgWin} {
		for r := range want {
			for c := range want[r] {
				if img[r][c] != want[r][c] {
					t.Fatalf("pixel (%d,%d) = %d, want %d", r, c, img[r][c], want[r][c])
				}
			}
		}
	}
	if st.Executed != st.Seeded+st.Splits {
		t.Errorf("pack accounting broken: %+v", st)
	}
	if st.Splits == 0 {
		t.Errorf("interior rows never forced a band split: %+v", st)
	}
	if eWin >= eSync {
		t.Errorf("windowed dispatch (%v) did not beat synchronous (%v)", eWin, eSync)
	}
	// Determinism: the windowed schedule reproduces exactly.
	imgWin2, eWin2, st2 := runOverRMI(t, spec, 6, 0)
	if eWin != eWin2 || st != st2 {
		t.Errorf("windowed runs diverge: %v/%v, %+v vs %+v", eWin, eWin2, st, st2)
	}
	_ = imgWin2
}

// TestNetMatchesSequential runs the mandel farm over the real-TCP middleware
// — par.NetRMI against in-process loopback rmi.Node daemons, each hosting
// MandelWorker on its own fresh domain — and checks every pixel against the
// sequential oracle. Both self-scheduling schedules run with the default
// window (2), exercising the pipelined dispatch path end to end.
func TestNetMatchesSequential(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	ln.Close()
	spec := DefaultSpec(40, 24)
	want := Sequential(spec)
	for _, sched := range []Schedule{Static, Dynamic, Stealing} {
		sched := sched
		t.Run(string(sched), func(t *testing.T) {
			var addrs []string
			for i := 0; i < 2; i++ {
				node := rmi.NewNode(exec.Real())
				par.HostClass(node, DefineClass(par.NewDomain()))
				addr, err := node.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer node.Close()
				addrs = append(addrs, addr)
			}
			mw, err := par.DialNet(par.NetAddressTable(addrs...))
			if err != nil {
				t.Fatal(err)
			}
			defer mw.Close()
			w := Build(spec, 3, Config{
				Schedule:   sched,
				Distribute: mw,
				Placement:  par.RoundRobin(0, len(addrs)),
			})
			got, err := w.Render(exec.Real(), spec)
			if err != nil {
				t.Fatalf("%s over netrmi: %v", sched, err)
			}
			for r := range want {
				for c := range want[r] {
					if got[r][c] != want[r][c] {
						t.Fatalf("%s over netrmi: pixel (%d,%d) = %d, want %d",
							sched, r, c, got[r][c], want[r][c])
					}
				}
			}
			if mw.Stats().Messages == 0 {
				t.Error("no middleware traffic counted — rendering did not cross the wire")
			}
		})
	}
}

// TestChaosNetMandel is the mandel half of the chaos matrix: the stealing
// row farm runs over a fault-enabled NetRMI while one node daemon crashes
// and restarts mid-render. Rows carry real state (the rendered pixels
// accumulate in each worker), so the pixel-exact comparison against the
// sequential oracle proves the crash neither lost nor double-rendered a row
// — reconnect, state reconstruction and replay all had to work.
func TestChaosNetMandel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	ln.Close()
	spec := DefaultSpec(40, 24)
	want := Sequential(spec)

	var mu sync.Mutex
	nodes := make([]*rmi.Node, 2)
	addrs := make([]string, 2)
	// The kill is an event at its kill point, not a watcher's afterthought:
	// node 1 crashes inside the dispatch of the first worker call it runs at
	// or past its sixth request, before that call's reply is written — so a
	// kill that fired is a kill the driver had to recover from — and a fresh
	// incarnation (new epoch, empty domain) takes over its address.
	var killed atomic.Bool
	restarted := make(chan struct{})
	var host func(i int) *rmi.Node
	host = func(i int) *rmi.Node {
		node := rmi.NewNode(exec.Real())
		dom := par.NewDomain()
		dom.Weaver().Plug(aspect.NewAspect("chaos-kill", 100).Around(
			aspect.Or(aspect.New("MandelWorker"), aspect.Call("MandelWorker", "*")),
			func(jp *aspect.JoinPoint, proceed aspect.ProceedFunc) ([]any, error) {
				if i == 1 && node.Requests() >= 6 && killed.CompareAndSwap(false, true) {
					go func() { // Abort waits for dispatches to end: not from inside one
						defer close(restarted)
						node.Abort()
						fresh := host(1)
						for attempt := 0; attempt < 50; attempt++ {
							if _, err := fresh.Listen(addrs[1]); err == nil {
								break
							}
							time.Sleep(5 * time.Millisecond)
						}
						mu.Lock()
						nodes[1] = fresh
						mu.Unlock()
					}()
					// Return only once the address refuses (so the driver cannot
					// reconnect into the dying incarnation) and the connections
					// are severed (so this call's reply cannot be written).
					for {
						probe, err := net.DialTimeout("tcp", addrs[1], 2*time.Millisecond)
						if err == nil {
							probe.Close()
							runtime.Gosched()
							continue
						}
						var timeout interface{ Timeout() bool }
						if !errors.As(err, &timeout) || !timeout.Timeout() {
							break // refused, not a SYN lost to the closing listener
						}
					}
					node.DropConns()
				}
				return proceed(jp.Args)
			}))
		par.HostClass(node, DefineClass(dom))
		return node
	}
	for i := range nodes {
		node := host(i)
		addr, err := node.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i], addrs[i] = node, addr
	}
	defer func() {
		if killed.Load() {
			<-restarted
		}
		mu.Lock()
		defer mu.Unlock()
		for _, n := range nodes {
			n.Close()
		}
	}()

	mw, err := par.DialNet(par.NetAddressTable(addrs...), par.WithFaultPolicy(par.FaultPolicy{
		Enabled:   true,
		Reconnect: rmi.ReconnectPolicy{MaxAttempts: 20, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer mw.Close()
	w := Build(spec, 3, Config{
		Schedule:   Stealing,
		Distribute: mw,
		Placement:  par.RoundRobin(0, len(addrs)),
	})
	got, err := w.Render(exec.Real(), spec)
	if err != nil {
		t.Fatalf("chaos render: %v", err)
	}
	for r := range want {
		for c := range want[r] {
			if got[r][c] != want[r][c] {
				t.Fatalf("pixel (%d,%d) = %d, want %d (crash lost or double-rendered a row)",
					r, c, got[r][c], want[r][c])
			}
		}
	}
	if !killed.Load() {
		// The stealing schedule may hand node 1's worker too few rows.
		t.Log("node 1 dispatched nothing at or past its kill point; fault path not exercised this run")
	} else if st := mw.FaultStats(); st.Reconnects == 0 && st.DroppedPeers == 0 {
		t.Errorf("node was killed mid-render but FaultStats is empty: %+v", st)
	}
}
