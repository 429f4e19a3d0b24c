package par

import (
	"strings"
	"testing"
	"time"

	"aspectpar/internal/aspect"
	"aspectpar/internal/cluster"
	"aspectpar/internal/exec"
	"aspectpar/internal/sim"
)

// runWindowedFarm executes one distributed self-scheduling farm round over
// RMI on the paper testbed and reports the managed replicas, the summed
// payload each saw, the elapsed virtual time and the Join error.
func runWindowedFarm(t *testing.T, cfg FarmConfig, data []int32, method string) (*Farm, int64, time.Duration, error) {
	t.Helper()
	dom, class := defineBox(t)
	cfg.Class = class
	if cfg.Method == "" {
		cfg.Method = "Work"
	}
	farm := NewFarm(cfg)
	meter := NewMetering(aspect.Call("Box", "*"), 1e3, 0) // 1µs per element
	cl := cluster.New(sim.NewEngine(), cluster.PaperTestbed())
	dist := NewDistribution(dom, aspect.New("Box"), aspect.Call("Box", "*"),
		NewSimRMI(cl), RoundRobin(1, 6))
	stack := NewStack(dom, farm, dist, meter)
	var joinErr error
	err := cl.Run(func(ctx exec.Context) {
		obj, err := class.New(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := class.Call(ctx, obj, method, data); err != nil {
			joinErr = err
		}
		if err := stack.Join(ctx); err != nil {
			joinErr = err
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, w := range farm.Managed() {
		total += w.(*box).sum()
	}
	return farm, total, cl.Elapsed(), joinErr
}

func windowData(n int) []int32 {
	data := make([]int32, n)
	for i := range data {
		data[i] = int32(i % 7)
	}
	return data
}

func wantSum(data []int32) int64 {
	var s int64
	for _, v := range data {
		s += int64(v)
	}
	return s
}

// TestWindowOneMatchesSynchronousProtocol pins the degradation contract:
// window=1 is a one-slot window of the worker loop whose every pack call is
// the plain synchronous round trip, so its virtual-time schedule is
// identical across runs in both self-scheduling disciplines and no pack is
// lost.
func TestWindowOneMatchesSynchronousProtocol(t *testing.T) {
	data := windowData(4096)
	for _, dynamic := range []bool{true, false} {
		cfg := FarmConfig{Workers: 4, Split: splitBy(256), Dynamic: dynamic, Stealing: !dynamic, Window: 1}
		_, sum1, e1, err1 := runWindowedFarm(t, cfg, data, "Work")
		_, sum2, e2, err2 := runWindowedFarm(t, cfg, data, "Work")
		if err1 != nil || err2 != nil {
			t.Fatalf("dynamic=%v: %v / %v", dynamic, err1, err2)
		}
		if e1 != e2 {
			t.Errorf("dynamic=%v: window=1 runs diverge: %v vs %v", dynamic, e1, e2)
		}
		if sum1 != wantSum(data) || sum2 != wantSum(data) {
			t.Errorf("dynamic=%v: sums = %d/%d, want %d", dynamic, sum1, sum2, wantSum(data))
		}
	}
}

// TestWindowHidesRoundTripLatency is the tentpole's headline property: on a
// balanced latency-dominated workload the windowed dispatchers must beat
// their own synchronous (window=1) protocol, and runs must stay
// deterministic.
func TestWindowHidesRoundTripLatency(t *testing.T) {
	data := windowData(8192)
	for _, dynamic := range []bool{true, false} {
		sync := FarmConfig{Workers: 4, Split: splitBy(256), Dynamic: dynamic, Stealing: !dynamic, Window: 1}
		win := sync
		win.Window = 2
		_, sumS, eS, errS := runWindowedFarm(t, sync, data, "Work")
		_, sumW, eW, errW := runWindowedFarm(t, win, data, "Work")
		_, sumW2, eW2, errW2 := runWindowedFarm(t, win, data, "Work")
		if errS != nil || errW != nil || errW2 != nil {
			t.Fatalf("dynamic=%v: %v / %v / %v", dynamic, errS, errW, errW2)
		}
		if sumS != wantSum(data) || sumW != wantSum(data) || sumW2 != wantSum(data) {
			t.Errorf("dynamic=%v: sums = %d/%d/%d, want %d", dynamic, sumS, sumW, sumW2, wantSum(data))
		}
		if eW >= eS {
			t.Errorf("dynamic=%v: windowed (%v) did not beat synchronous (%v)", dynamic, eW, eS)
		}
		if eW != eW2 {
			t.Errorf("dynamic=%v: windowed runs diverge: %v vs %v", dynamic, eW, eW2)
		}
	}
}

// TestWindowLargerThanPacks drives a window far deeper than the number of
// packs: every pack fits in flight at once and the round must still complete
// with nothing lost and the accounting invariant intact.
func TestWindowLargerThanPacks(t *testing.T) {
	data := windowData(1024)
	for _, dynamic := range []bool{true, false} {
		cfg := FarmConfig{Workers: 3, Split: splitBy(256), Dynamic: dynamic, Stealing: !dynamic, Window: 64}
		farm, sum, _, err := runWindowedFarm(t, cfg, data, "Work")
		if err != nil {
			t.Fatalf("dynamic=%v: %v", dynamic, err)
		}
		if sum != wantSum(data) {
			t.Errorf("dynamic=%v: sum = %d, want %d (packs lost with window > packs)", dynamic, sum, wantSum(data))
		}
		if !dynamic {
			st := farm.StealStats()
			if st.Executed != st.Seeded+st.Splits {
				t.Errorf("pack accounting broken with window > packs: %+v", st)
			}
		}
	}
}

// TestWindowErrorMidWindowDrains cancels a round mid-window: one pack's
// method fails while its worker holds further packs in flight. The
// dispatcher must reclaim the full window, surface the failure through Join,
// and leave the farm quiescent.
func TestWindowErrorMidWindowDrains(t *testing.T) {
	data := windowData(2048)
	for _, dynamic := range []bool{true, false} {
		cfg := FarmConfig{Workers: 2, Split: splitBy(128), Dynamic: dynamic, Stealing: !dynamic, Window: 4}
		farm, _, _, err := runWindowedFarm(t, cfg, data, "Fail")
		if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
			t.Fatalf("dynamic=%v: Join = %v, want the servant failures", dynamic, err)
		}
		if !farm.Quiet() {
			t.Errorf("dynamic=%v: farm not quiescent after failed round", dynamic)
		}
	}
}

// TestWindowInertWithoutDistribution pins the fallback: with no middleware
// plugged the windowed marks are inert and the dispatchers execute inline,
// identically to the synchronous protocol.
func TestWindowInertWithoutDistribution(t *testing.T) {
	data := windowData(1024)
	run := func(window int) (int64, time.Duration) {
		dom, class := defineBox(t)
		farm := NewFarm(FarmConfig{Class: class, Method: "Work", Workers: 3,
			Split: splitBy(128), Dynamic: true, Window: window})
		meter := NewMetering(aspect.Call("Box", "*"), 1e3, 0)
		stack := NewStack(dom, farm, meter)
		cl := cluster.New(sim.NewEngine(), cluster.Config{Machines: 1, ContextsPerMachine: 4})
		err := cl.Run(func(ctx exec.Context) {
			obj, _ := class.New(ctx)
			if _, err := class.Call(ctx, obj, "Work", data); err != nil {
				t.Error(err)
			}
			if err := stack.Join(ctx); err != nil {
				t.Error(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, w := range farm.Managed() {
			total += w.(*box).sum()
		}
		return total, cl.Elapsed()
	}
	sum1, e1 := run(1)
	sum8, e8 := run(8)
	if sum1 != wantSum(data) || sum8 != wantSum(data) {
		t.Errorf("sums = %d/%d, want %d", sum1, sum8, wantSum(data))
	}
	if e1 != e8 {
		t.Errorf("local runs with window 1 (%v) and 8 (%v) differ: window should be inert", e1, e8)
	}
}
