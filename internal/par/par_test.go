package par

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"aspectpar/internal/aspect"
	"aspectpar/internal/cluster"
	"aspectpar/internal/exec"
	"aspectpar/internal/sim"
)

// box is the toy core class used across the tests: it records the payloads
// it was handed and counts one operation per element (for metering tests).
type box struct {
	id    int
	label string

	mu    sync.Mutex
	items []int32
	calls int
	ops   int64
}

func (b *box) work(payload []int32) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.items = append(b.items, payload...)
	b.calls++
	b.ops += int64(len(payload))
}

func (b *box) sum() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var s int64
	for _, v := range b.items {
		s += int64(v)
	}
	return s
}

// TakeOps implements OpsReporter.
func (b *box) TakeOps() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	ops := b.ops
	b.ops = 0
	return ops
}

// defineBox registers the box class on a fresh domain.
func defineBox(t *testing.T) (*Domain, *Class) {
	t.Helper()
	dom := NewDomain()
	nextID := 0
	class := dom.Define("Box",
		func(args []any) (any, error) {
			b := &box{id: nextID}
			nextID++
			if len(args) > 0 {
				b.label = args[0].(string)
			}
			return b, nil
		},
		map[string]MethodBody{
			"Work": func(target any, args []any) ([]any, error) {
				target.(*box).work(args[0].([]int32))
				return nil, nil
			},
			"Sum": func(target any, args []any) ([]any, error) {
				return []any{target.(*box).sum()}, nil
			},
			"Fail": func(any, []any) ([]any, error) {
				return nil, fmt.Errorf("deliberate failure")
			},
		})
	return dom, class
}

func payload(vals ...int32) []int32 { return vals }

// splitBy returns a Split function dividing the single []int32 argument into
// chunks of n.
func splitBy(n int) func([]any) [][]any {
	return func(args []any) [][]any {
		data := args[0].([]int32)
		var parts [][]any
		for len(data) > 0 {
			k := n
			if k > len(data) {
				k = len(data)
			}
			parts = append(parts, []any{data[:k:k]})
			data = data[k:]
		}
		return parts
	}
}

// --- Sequential semantics ---------------------------------------------------

func TestClassSequentialWithoutModules(t *testing.T) {
	_, class := defineBox(t)
	ctx := exec.Real()
	obj, err := class.New(ctx, "solo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := class.Call(ctx, obj, "Work", payload(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	res, err := class.Call(ctx, obj, "Sum")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != 6 {
		t.Errorf("sum = %v", res[0])
	}
	if obj.(*box).label != "solo" {
		t.Error("constructor args not delivered")
	}
}

func TestClassErrors(t *testing.T) {
	dom, class := defineBox(t)
	ctx := exec.Real()
	if _, err := class.Call(ctx, &box{}, "Nope"); err == nil {
		t.Error("unknown method should fail")
	}
	if _, err := class.Call(ctx, &box{}, "Fail"); err == nil {
		t.Error("body error should propagate")
	}
	noCtor := dom.Define("NoCtor", nil, nil)
	if _, err := noCtor.New(ctx); err == nil {
		t.Error("New on ctor-less class should fail")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate Define should panic")
			}
		}()
		dom.Define("Box", nil, nil)
	}()
	if _, ok := dom.Class("Box"); !ok {
		t.Error("Class lookup failed")
	}
	if _, ok := dom.Class("Missing"); ok {
		t.Error("missing class reported present")
	}
}

// --- Partition alone (must be valid without concurrency, like OpenMP) --------

func TestPipelineAloneIsSequentialAndComplete(t *testing.T) {
	dom, class := defineBox(t)
	pipe := NewPipeline(PipelineConfig{
		Class:  class,
		Method: "Work",
		Stages: 3,
		Split:  splitBy(2),
	})
	stack := NewStack(dom, pipe)
	ctx := exec.Real()

	obj, err := class.New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := class.Call(ctx, obj, "Work", payload(1, 2, 3, 4, 5)); err != nil {
		t.Fatal(err)
	}
	if err := stack.Join(ctx); err != nil {
		t.Fatal(err)
	}

	stages := pipe.Managed()
	if len(stages) != 3 {
		t.Fatalf("stages = %d", len(stages))
	}
	if obj != stages[0] {
		t.Error("client must hold the first stage")
	}
	// Every stage sees every element (default Forward passes args through).
	for i, s := range stages {
		b := s.(*box)
		if got := len(b.items); got != 5 {
			t.Errorf("stage %d saw %d items, want 5", i, got)
		}
		if b.calls != 3 {
			t.Errorf("stage %d got %d calls, want 3 (packs of 2,2,1)", i, b.calls)
		}
	}
}

func TestPipelineStageArgsAndForward(t *testing.T) {
	dom, class := defineBox(t)
	pipe := NewPipeline(PipelineConfig{
		Class:  class,
		Method: "Work",
		Stages: 3,
		StageArgs: func(orig []any, stage int) []any {
			return []any{fmt.Sprintf("stage-%d", stage)}
		},
		// Forward only even numbers onward: each stage halves the stream.
		Forward: func(stage int, results []any, args []any) []any {
			in := args[0].([]int32)
			var out []int32
			for _, v := range in {
				if v%2 == 0 {
					out = append(out, v/2)
				}
			}
			if len(out) == 0 {
				return nil
			}
			return []any{out}
		},
	})
	stack := NewStack(dom, pipe)
	ctx := exec.Real()
	obj, _ := class.New(ctx, "orig")
	if _, err := class.Call(ctx, obj, "Work", payload(8, 3, 4)); err != nil {
		t.Fatal(err)
	}
	if err := stack.Join(ctx); err != nil {
		t.Fatal(err)
	}
	stages := pipe.Managed()
	if stages[1].(*box).label != "stage-1" {
		t.Errorf("StageArgs not applied: %q", stages[1].(*box).label)
	}
	want := [][]int32{{8, 3, 4}, {4, 2}, {2, 1}}
	for i, s := range stages {
		if got := fmt.Sprint(s.(*box).items); got != fmt.Sprint(want[i]) {
			t.Errorf("stage %d items = %v, want %v", i, s.(*box).items, want[i])
		}
	}
}

func TestFarmAloneRoundRobin(t *testing.T) {
	dom, class := defineBox(t)
	farm := NewFarm(FarmConfig{Class: class, Method: "Work", Workers: 3, Split: splitBy(1)})
	stack := NewStack(dom, farm)
	ctx := exec.Real()
	obj, _ := class.New(ctx)
	if _, err := class.Call(ctx, obj, "Work", payload(10, 20, 30, 40)); err != nil {
		t.Fatal(err)
	}
	if err := stack.Join(ctx); err != nil {
		t.Fatal(err)
	}
	workers := farm.Managed()
	if len(workers) != 3 {
		t.Fatalf("workers = %d", len(workers))
	}
	// Round-robin: w0 gets 10,40; w1 gets 20; w2 gets 30.
	if got := fmt.Sprint(workers[0].(*box).items); got != "[10 40]" {
		t.Errorf("w0 = %v", got)
	}
	if got := fmt.Sprint(workers[1].(*box).items); got != "[20]" {
		t.Errorf("w1 = %v", got)
	}
	// No piece lost, none duplicated.
	total := int64(0)
	for _, w := range workers {
		total += w.(*box).sum()
	}
	if total != 100 {
		t.Errorf("total = %d", total)
	}
}

func TestFarmCollect(t *testing.T) {
	dom, class := defineBox(t)
	farm := NewFarm(FarmConfig{Class: class, Method: "Work", Workers: 2, Split: splitBy(1)})
	NewStack(dom, farm)
	ctx := exec.Real()
	obj, _ := class.New(ctx)
	_, _ = class.Call(ctx, obj, "Work", payload(5, 7))
	sums, err := farm.Collect(ctx, "Sum")
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 || sums[0].(int64)+sums[1].(int64) != 12 {
		t.Errorf("sums = %v", sums)
	}
}

func TestFarmWorkerArgs(t *testing.T) {
	dom, class := defineBox(t)
	farm := NewFarm(FarmConfig{
		Class: class, Method: "Work", Workers: 2,
		WorkerArgs: func(orig []any, w int) []any { return []any{fmt.Sprintf("w%d", w)} },
	})
	NewStack(dom, farm)
	ctx := exec.Real()
	_, _ = class.New(ctx, "orig")
	ws := farm.Managed()
	if ws[0].(*box).label != "w0" || ws[1].(*box).label != "w1" {
		t.Errorf("labels = %q, %q", ws[0].(*box).label, ws[1].(*box).label)
	}
}

func TestUnplugRestoresSequential(t *testing.T) {
	dom, class := defineBox(t)
	farm := NewFarm(FarmConfig{Class: class, Method: "Work", Workers: 3})
	stack := NewStack(dom, farm)
	stack.Unplug()
	ctx := exec.Real()
	obj, _ := class.New(ctx)
	if len(farm.Managed()) != 0 {
		t.Error("unplugged farm still duplicated the object")
	}
	_, _ = class.Call(ctx, obj, "Work", payload(1))
	if obj.(*box).calls != 1 {
		t.Error("call did not reach the plain object")
	}
}

// --- Concurrency --------------------------------------------------------------

func TestConcurrencyAsyncAndJoin(t *testing.T) {
	// Run under the simulator so concurrency is observable via virtual time.
	dom, class := defineBox(t)
	conc := NewConcurrency(aspect.Call("Box", "Work"))
	meter := NewMetering(aspect.Call("Box", "*"), 1e6, 0) // 1ms per element
	farm := NewFarm(FarmConfig{Class: class, Method: "Work", Workers: 4, Split: splitBy(1)})
	stack := NewStack(dom, farm, conc, meter)

	cl := cluster.New(sim.NewEngine(), cluster.Config{Machines: 1, ContextsPerMachine: 4})
	err := cl.Run(func(ctx exec.Context) {
		obj, err := class.New(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := class.Call(ctx, obj, "Work", payload(1, 2, 3, 4)); err != nil {
			t.Error(err)
		}
		if err := stack.Join(ctx); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 pieces × 1ms on 4 workers × 4 contexts: parallel -> ~1ms, not 4ms.
	if cl.Elapsed() > 2*time.Millisecond {
		t.Errorf("elapsed = %v; asynchronous calls did not overlap", cl.Elapsed())
	}
	if conc.Spawned() != 4 {
		t.Errorf("spawned = %d, want 4", conc.Spawned())
	}
	if !conc.Quiet() {
		t.Error("Quiet() after Join should be true")
	}
}

func TestConcurrencySerialisesPerObject(t *testing.T) {
	dom, class := defineBox(t)
	conc := NewConcurrency(aspect.Call("Box", "Work"))
	meter := NewMetering(aspect.Call("Box", "*"), 1e6, 0)
	// One worker: all four pieces must serialise on its mutex.
	farm := NewFarm(FarmConfig{Class: class, Method: "Work", Workers: 1, Split: splitBy(1)})
	stack := NewStack(dom, farm, conc, meter)

	cl := cluster.New(sim.NewEngine(), cluster.Config{Machines: 1, ContextsPerMachine: 4})
	err := cl.Run(func(ctx exec.Context) {
		obj, _ := class.New(ctx)
		_, _ = class.Call(ctx, obj, "Work", payload(1, 2, 3, 4))
		if err := stack.Join(ctx); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Elapsed() < 4*time.Millisecond {
		t.Errorf("elapsed = %v; per-object mutual exclusion violated", cl.Elapsed())
	}
}

func TestConcurrencyCollectsAsyncErrors(t *testing.T) {
	dom, class := defineBox(t)
	conc := NewConcurrency(aspect.Call("Box", "Fail"))
	stack := NewStack(dom, conc)
	cl := cluster.New(sim.NewEngine(), cluster.Config{Machines: 1, ContextsPerMachine: 1})
	err := cl.Run(func(ctx exec.Context) {
		obj, _ := class.New(ctx)
		if _, err := class.Call(ctx, obj, "Fail"); err != nil {
			t.Error("async call should defer the error to Join")
		}
		if err := stack.Join(ctx); err == nil || !strings.Contains(err.Error(), "deliberate failure") {
			t.Errorf("Join error = %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// --- Distribution ---------------------------------------------------------------

func TestDistributionPlacesAndRedirects(t *testing.T) {
	dom, class := defineBox(t)
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.PaperTestbed())
	mw := NewSimRMI(cl)
	farm := NewFarm(FarmConfig{Class: class, Method: "Work", Workers: 3, Split: splitBy(1)})
	dist := NewDistribution(dom, aspect.New("Box"), aspect.Call("Box", "*"), mw, RoundRobin(1, 6))
	stack := NewStack(dom, farm, dist)

	err := cl.Run(func(ctx exec.Context) {
		obj, err := class.New(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := class.Call(ctx, obj, "Work", payload(1, 2, 3)); err != nil {
			t.Error(err)
		}
		if err := stack.Join(ctx); err != nil {
			t.Error(err)
		}
		// Gather over the middleware.
		sums, err := farm.Collect(ctx, "Sum")
		if err != nil {
			t.Error(err)
		}
		var total int64
		for _, s := range sums {
			total += s.(int64)
		}
		if total != 6 {
			t.Errorf("total = %d", total)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Placement: workers on nodes 1, 2, 3.
	for i, w := range farm.Managed() {
		node, ok := mw.NodeOf(w)
		if !ok || node != exec.NodeID(1+i) {
			t.Errorf("worker %d on node %v (ok=%v), want %d", i, node, ok, 1+i)
		}
	}
	if cl.Elapsed() == 0 {
		t.Error("remote calls should consume virtual time")
	}
	if st := mw.Stats(); st.Messages == 0 || st.Bytes == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDistributionUnplacedObjectStaysLocal(t *testing.T) {
	dom, class := defineBox(t)
	cl := cluster.New(sim.NewEngine(), cluster.PaperTestbed())
	mw := NewSimRMI(cl)
	// Distribution only; the object is created before plugging, so it is
	// never exported.
	dist := NewDistribution(dom, aspect.New("Box"), aspect.Call("Box", "*"), mw, SingleNode(3))
	err := cl.Run(func(ctx exec.Context) {
		obj := &box{}
		dist.Plug(dom.Weaver())
		defer dist.Unplug(dom.Weaver())
		if _, err := class.Call(ctx, obj, "Work", payload(9)); err != nil {
			t.Error(err)
		}
		if obj.calls != 1 {
			t.Error("unplaced object call must run locally")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMPPOneWayQuiescence(t *testing.T) {
	dom, class := defineBox(t)
	cl := cluster.New(sim.NewEngine(), cluster.PaperTestbed())
	mw := NewSimMPP(cl, "Work")
	farm := NewFarm(FarmConfig{Class: class, Method: "Work", Workers: 2, Split: splitBy(1)})
	dist := NewDistribution(dom, aspect.New("Box"), aspect.Call("Box", "*"), mw, RoundRobin(1, 6))
	stack := NewStack(dom, farm, dist)

	var total int64
	err := cl.Run(func(ctx exec.Context) {
		obj, _ := class.New(ctx)
		_, _ = class.Call(ctx, obj, "Work", payload(1, 2, 3, 4, 5))
		if err := stack.Join(ctx); err != nil {
			t.Error(err)
		}
		sums, err := farm.Collect(ctx, "Sum")
		if err != nil {
			t.Error(err)
		}
		for _, s := range sums {
			total += s.(int64)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Join must have waited for the one-way sends to be delivered and
	// processed before Collect gathered the sums.
	if total != 15 {
		t.Errorf("total = %d, want 15 (one-way messages lost or joined too early)", total)
	}
}

func TestMPPCheaperThanRMI(t *testing.T) {
	run := func(mk func(cl *cluster.Cluster) Middleware) time.Duration {
		dom, class := defineBox(t)
		cl := cluster.New(sim.NewEngine(), cluster.PaperTestbed())
		mw := mk(cl)
		farm := NewFarm(FarmConfig{Class: class, Method: "Work", Workers: 4, Split: splitBy(1000)})
		conc := NewConcurrency(aspect.Call("Box", "Work"))
		dist := NewDistribution(dom, aspect.New("Box"), aspect.Call("Box", "*"), mw, RoundRobin(1, 6))
		stack := NewStack(dom, farm, conc, dist)
		data := make([]int32, 40_000)
		err := cl.Run(func(ctx exec.Context) {
			obj, _ := class.New(ctx)
			_, _ = class.Call(ctx, obj, "Work", data)
			if err := stack.Join(ctx); err != nil {
				t.Error(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl.Elapsed()
	}
	rmi := run(func(cl *cluster.Cluster) Middleware { return NewSimRMI(cl) })
	mpp := run(func(cl *cluster.Cluster) Middleware { return NewSimMPP(cl, "Work") })
	if mpp >= rmi {
		t.Errorf("MPP (%v) should beat RMI (%v) on a message-heavy workload", mpp, rmi)
	}
}

// --- Dynamic farm -----------------------------------------------------------------

func TestDynamicFarmBalancesSkewedWorkPieces(t *testing.T) {
	costs := []int32{9, 1, 9, 1, 9, 1} // ms of metering cost per piece
	split := func(args []any) [][]any {
		var parts [][]any
		for _, c := range args[0].([]int32) {
			part := make([]int32, c) // c elements -> c ms under the meter
			parts = append(parts, []any{part})
		}
		return parts
	}
	run := func(dynamic bool) time.Duration {
		dom, class := defineBox(t)
		meter := NewMetering(aspect.Call("Box", "*"), 1e6, 0)
		farm := NewFarm(FarmConfig{Class: class, Method: "Work", Workers: 2, Split: split, Dynamic: dynamic})
		mods := []Module{farm, meter}
		if !dynamic {
			mods = append(mods, NewConcurrency(aspect.Call("Box", "Work")))
		}
		stack := NewStack(dom, mods...)
		cl := cluster.New(sim.NewEngine(), cluster.Config{Machines: 1, ContextsPerMachine: 4})
		err := cl.Run(func(ctx exec.Context) {
			obj, _ := class.New(ctx)
			_, _ = class.Call(ctx, obj, "Work", costs)
			if err := stack.Join(ctx); err != nil {
				t.Error(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl.Elapsed()
	}
	static := run(false)
	dynamic := run(true)
	if static != 27*time.Millisecond {
		t.Errorf("static farm = %v, want 27ms (9+9+9 on one worker)", static)
	}
	if dynamic >= static {
		t.Errorf("dynamic farm (%v) should beat static (%v) under skew", dynamic, static)
	}
	// Self-scheduling in FIFO piece order: w0={9,1,9}, w1={1,9,1} -> 19ms.
	if dynamic != 19*time.Millisecond {
		t.Errorf("dynamic farm = %v, want 19ms", dynamic)
	}
}

// --- Heartbeat ---------------------------------------------------------------------

func TestHeartbeatBroadcastBarrierExchange(t *testing.T) {
	dom, class := defineBox(t)
	var exchanges int
	hb := NewHeartbeat(HeartbeatConfig{
		Class:   class,
		Workers: 3,
		WorkerArgs: func(orig []any, i int) []any {
			return []any{fmt.Sprintf("part-%d", i)}
		},
		StepMethod: "Work",
		Exchange: func(ctx exec.Context, workers []any, call HBCall) error {
			exchanges++
			// Neighbour exchange: send each worker its left neighbour's id.
			for i := range workers {
				left := (i + len(workers) - 1) % len(workers)
				if _, err := call(ctx, workers[i], "Work", payload(int32(100+left))); err != nil {
					return err
				}
			}
			return nil
		},
	})
	meter := NewMetering(aspect.Call("Box", "*"), 1e6, 0)
	stack := NewStack(dom, hb, meter)
	cl := cluster.New(sim.NewEngine(), cluster.Config{Machines: 1, ContextsPerMachine: 4})
	err := cl.Run(func(ctx exec.Context) {
		obj, _ := class.New(ctx)
		for iter := 0; iter < 2; iter++ {
			if _, err := class.Call(ctx, obj, "Work", payload(int32(iter))); err != nil {
				t.Error(err)
			}
		}
		if err := stack.Join(ctx); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if exchanges != 2 {
		t.Errorf("exchanges = %d, want 2 (one per step)", exchanges)
	}
	for i, w := range hb.Managed() {
		b := w.(*box)
		// Per iteration: one broadcast element + one exchange element.
		if len(b.items) != 4 {
			t.Errorf("worker %d items = %v", i, b.items)
		}
		if b.label != fmt.Sprintf("part-%d", i) {
			t.Errorf("worker %d label = %q", i, b.label)
		}
	}
}

// --- Metering ------------------------------------------------------------------------

func TestMeteringChargesOpsAndOverhead(t *testing.T) {
	dom, class := defineBox(t)
	meter := NewMetering(aspect.Call("Box", "Work"), 1e6, 500*time.Microsecond)
	stack := NewStack(dom, meter)
	defer stack.Unplug()
	cl := cluster.New(sim.NewEngine(), cluster.Config{Machines: 1, ContextsPerMachine: 1})
	err := cl.Run(func(ctx exec.Context) {
		obj, _ := class.New(ctx)
		_, _ = class.Call(ctx, obj, "Work", payload(1, 2, 3)) // 3 ops = 3ms, + 0.5ms
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cl.Elapsed(), 3500*time.Microsecond; got != want {
		t.Errorf("elapsed = %v, want %v", got, want)
	}
	if meter.NsPerOp() != 1e6 {
		t.Errorf("NsPerOp = %v", meter.NsPerOp())
	}
}

// --- Stack --------------------------------------------------------------------------

func TestStackDescribe(t *testing.T) {
	dom, class := defineBox(t)
	farm := NewFarm(FarmConfig{Class: class, Method: "Work", Workers: 2})
	conc := NewConcurrency(aspect.Call("Box", "Work"))
	NewStack(dom, farm, conc)
	if got := farm.ModuleName(); !strings.Contains(got, "farm(2)") {
		t.Errorf("farm ModuleName = %q", got)
	}
	if got := conc.ModuleName(); !strings.Contains(got, "concurrency") {
		t.Errorf("concurrency ModuleName = %q", got)
	}
}

// --- Optimisations --------------------------------------------------------------------

func TestPackingMergesMessages(t *testing.T) {
	dom, class := defineBox(t)
	farm := NewFarm(FarmConfig{Class: class, Method: "Work", Workers: 1, Split: splitBy(1)})
	packing := NewPacking(class, "Work", 3)
	stack := NewStack(dom, farm, packing)
	ctx := exec.Real()
	obj, _ := class.New(ctx)
	_, _ = class.Call(ctx, obj, "Work", payload(1, 2, 3, 4, 5, 6, 7))
	if err := packing.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := stack.Join(ctx); err != nil {
		t.Fatal(err)
	}
	w := farm.Managed()[0].(*box)
	// 7 single-element pieces packed 3-to-1: calls with 3, 3, 1 elements.
	if w.calls != 3 {
		t.Errorf("worker saw %d calls, want 3 (packed)", w.calls)
	}
	if got := len(w.items); got != 7 {
		t.Errorf("worker saw %d elements, want all 7", got)
	}
	calls, merged := packing.Stats()
	if calls != 7 || merged != 3 {
		t.Errorf("packing stats = %d buffered, %d merged", calls, merged)
	}
}

// --- Full composition: mini Figure 17 -------------------------------------------------

// miniSieveTimes runs the same workload under several module combinations
// and returns elapsed virtual times keyed by configuration name.
func TestModuleCombinationsOrdering(t *testing.T) {
	const elements = 24_000 // meter at 1µs per element -> 24ms of work
	run := func(name string, workers int, mk func(dom *Domain, class *Class, cl *cluster.Cluster, farm *Farm) []Module) time.Duration {
		dom, class := defineBox(t)
		farm := NewFarm(FarmConfig{Class: class, Method: "Work", Workers: workers, Split: splitBy(1000)})
		cl := cluster.New(sim.NewEngine(), cluster.PaperTestbed())
		mods := append([]Module{farm}, mk(dom, class, cl, farm)...)
		mods = append(mods, NewMetering(aspect.Call("Box", "*"), 1000, 0)) // 1µs/elem
		stack := NewStack(dom, mods...)
		data := make([]int32, elements)
		err := cl.Run(func(ctx exec.Context) {
			obj, _ := class.New(ctx)
			_, _ = class.Call(ctx, obj, "Work", data)
			if err := stack.Join(ctx); err != nil {
				t.Error(err)
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return cl.Elapsed()
	}

	seq := run("seq", 1, func(dom *Domain, class *Class, cl *cluster.Cluster, farm *Farm) []Module {
		return nil
	})
	threads := run("threads", 6, func(dom *Domain, class *Class, cl *cluster.Cluster, farm *Farm) []Module {
		return []Module{NewConcurrency(aspect.Call("Box", "Work"))}
	})
	rmi := run("rmi", 6, func(dom *Domain, class *Class, cl *cluster.Cluster, farm *Farm) []Module {
		return []Module{
			NewConcurrency(aspect.Call("Box", "Work")),
			NewDistribution(dom, aspect.New("Box"), aspect.Call("Box", "*"), NewSimRMI(cl), RoundRobin(1, 6)),
		}
	})
	mpp := run("mpp", 6, func(dom *Domain, class *Class, cl *cluster.Cluster, farm *Farm) []Module {
		return []Module{
			NewConcurrency(aspect.Call("Box", "Work")),
			NewDistribution(dom, aspect.New("Box"), aspect.Call("Box", "*"), NewSimMPP(cl, "Work"), RoundRobin(1, 6)),
		}
	})

	order := []struct {
		name string
		d    time.Duration
	}{{"seq", seq}, {"threads", threads}, {"rmi", rmi}, {"mpp", mpp}}
	sort.Slice(order, func(i, j int) bool { return order[i].d < order[j].d })

	if threads >= seq {
		t.Errorf("threads (%v) should beat sequential (%v)", threads, seq)
	}
	if mpp >= rmi {
		t.Errorf("MPP (%v) should beat RMI (%v)", mpp, rmi)
	}
	// On one 4-context machine, 6 workers cannot beat 6 distributed
	// workers by more than the communication overhead; with this small
	// workload threads win, which is the paper's point about the
	// shared-memory version at low filter counts.
	if threads >= rmi {
		t.Errorf("on a small workload FarmThreads (%v) should beat FarmRMI (%v), as in the paper's left region", threads, rmi)
	}
}

// TestSimMiddlewareGoldenTraffic pins the protocol paths of the simulated
// middlewares that no sieve variant reaches: MPP request/reply calls, issued
// windowed (a dynamic farm with window 4) and synchronously (window 1), next
// to the same farms over RMI. Each row is the elapsed virtual time and every
// message and byte the cost model charged.
func TestSimMiddlewareGoldenTraffic(t *testing.T) {
	golden := []struct {
		mpp       bool
		window    int
		elapsedNs int64
		messages  int64
		bytes     int64
	}{
		{false, 4, 8390704, 44, 4784},
		{false, 1, 10857024, 44, 4784},
		{true, 4, 1959632, 44, 4784},
		{true, 1, 2770512, 44, 4784},
	}
	for _, g := range golden {
		dom, class := defineBox(t)
		cl := cluster.New(sim.NewEngine(), cluster.PaperTestbed())
		mw := NewSimRMI(cl)
		if g.mpp {
			mw = NewSimMPP(cl) // no one-way methods: every call is request/reply
		}
		farm := NewFarm(FarmConfig{Class: class, Method: "Work", Workers: 3, Split: splitBy(64), Dynamic: true, Window: g.window})
		dist := NewDistribution(dom, aspect.New("Box"), aspect.Call("Box", "*"), mw, RoundRobin(1, 6))
		stack := NewStack(dom, farm, dist, NewMetering(aspect.Call("Box", "*"), 1e3, 0))
		data := windowData(1024)
		var total int64
		err := cl.Run(func(ctx exec.Context) {
			obj, err := class.New(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := class.Call(ctx, obj, "Work", data); err != nil {
				t.Error(err)
			}
			if err := stack.Join(ctx); err != nil {
				t.Error(err)
			}
			sums, err := farm.Collect(ctx, "Sum")
			if err != nil {
				t.Error(err)
			}
			for _, s := range sums {
				total += s.(int64)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s window=%d", mw.MiddlewareName(), g.window)
		if total != wantSum(data) {
			t.Errorf("%s: sum %d, want %d", name, total, wantSum(data))
		}
		st := mw.Stats()
		if got := cl.Elapsed().Nanoseconds(); got != g.elapsedNs {
			t.Errorf("%s: elapsed %d ns, golden %d ns", name, got, g.elapsedNs)
		}
		if st.Messages != g.messages || st.Bytes != g.bytes {
			t.Errorf("%s: traffic %d messages / %d bytes, golden %d / %d", name, st.Messages, st.Bytes, g.messages, g.bytes)
		}
	}
}
