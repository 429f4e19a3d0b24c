package par

import (
	"testing"
	"time"

	"aspectpar/internal/aspect"
	"aspectpar/internal/cluster"
	"aspectpar/internal/exec"
	"aspectpar/internal/sim"
)

// runStealFarm executes one stealing-farm round over the given pieces on the
// virtual-time backend and returns the farm (for stats/managed inspection)
// and the elapsed virtual time.
func runStealFarm(t *testing.T, workers int, split func([]any) [][]any, steal StealConfig,
	data []int32, contexts int) (*Farm, time.Duration) {
	t.Helper()
	dom, class := defineBox(t)
	meter := NewMetering(aspect.Call("Box", "Work"), 1e6, 0) // 1ms per element
	farm := NewFarm(FarmConfig{
		Class: class, Method: "Work", Workers: workers,
		Split: split, Stealing: true, Steal: steal,
	})
	stack := NewStack(dom, farm, meter)
	cl := cluster.New(sim.NewEngine(), cluster.Config{Machines: 1, ContextsPerMachine: contexts})
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
	})
	if err != nil {
		t.Fatal(err)
	}
	return farm, cl.Elapsed()
}

func TestStealingFarmBalancesSkewedPacks(t *testing.T) {
	// Same skewed workload as TestDynamicFarmBalancesSkewedWorkPieces: pieces
	// of 9,1,9,1,9,1 ms dealt round-robin give the static farm a 27ms
	// critical path (all three 9s on one worker). Stealing moves queued 9ms
	// packs to the idle worker: w1 drains its 1ms packs by t=3, steals one 9
	// (3..12), w0 runs its remaining 9s (0..9, 9..18) — makespan ≈ 18ms.
	costs := []int32{9, 1, 9, 1, 9, 1}
	split := func(args []any) [][]any {
		var parts [][]any
		for _, c := range args[0].([]int32) {
			parts = append(parts, []any{make([]int32, c)})
		}
		return parts
	}
	farm, elapsed := runStealFarm(t, 2, split, StealConfig{}, costs, 4)

	if elapsed >= 27*time.Millisecond {
		t.Errorf("stealing farm = %v, want < 27ms (static critical path)", elapsed)
	}
	if elapsed >= 19*time.Millisecond {
		t.Errorf("stealing farm = %v, want < 19ms (dynamic farm's makespan)", elapsed)
	}
	st := farm.StealStats()
	if st.Steals == 0 || st.Stolen == 0 {
		t.Errorf("no steals recorded: %+v", st)
	}
	if st.Seeded != 6 {
		t.Errorf("seeded = %d, want 6", st.Seeded)
	}
	if st.Executed != st.Seeded+st.Splits {
		t.Errorf("pack accounting broken: executed=%d seeded=%d splits=%d", st.Executed, st.Seeded, st.Splits)
	}
}

func TestStealingFarmSplitsHotPack(t *testing.T) {
	// One giant pack on worker 0 and nothing else: the only way worker 1
	// ever works is a steal-request split of the hot pack. MinSplit 100
	// allows halving the 1000-element pack repeatedly.
	data := make([]int32, 1000)
	wholePack := func(args []any) [][]any { return [][]any{{args[0].([]int32)}} }
	farm, elapsed := runStealFarm(t, 2, wholePack, StealConfig{MinSplit: 100}, data, 4)

	st := farm.StealStats()
	if st.Splits == 0 {
		t.Fatalf("hot pack was never split: %+v", st)
	}
	if st.Executed != st.Seeded+st.Splits {
		t.Errorf("pack accounting broken: %+v", st)
	}
	// 1000ms of metered work; two workers after the first split: the
	// makespan must be well under the sequential 1000ms.
	if elapsed >= 900*time.Millisecond {
		t.Errorf("elapsed = %v; splitting did not parallelise the hot pack", elapsed)
	}
	// Completeness: both replicas together saw all 1000 elements.
	total := 0
	for _, w := range farm.Managed() {
		total += len(w.(*box).items)
	}
	if total != 1000 {
		t.Errorf("workers saw %d elements, want 1000", total)
	}
}

func TestStealingFarmSingleWorkerDegeneratesToSerial(t *testing.T) {
	data := []int32{1, 2, 3, 4, 5}
	farm, _ := runStealFarm(t, 1, splitBy(2), StealConfig{}, data, 4)
	st := farm.StealStats()
	if st.Steals != 0 || st.Splits != 0 {
		t.Errorf("single worker should have nothing to steal: %+v", st)
	}
	if got := farm.Managed()[0].(*box).sum(); got != 15 {
		t.Errorf("sum = %d, want 15", got)
	}
}

func TestStealingFarmDeterministicUnderVirtualTime(t *testing.T) {
	// The same configuration must give bit-identical virtual schedules on
	// every run: round-robin victim selection, FIFO event ordering and
	// seedless backoff leave no nondeterminism.
	data := make([]int32, 501)
	for i := range data {
		data[i] = int32(i % 13)
	}
	run := func() (time.Duration, StealStats) {
		farm, elapsed := runStealFarm(t, 3, splitBy(7), StealConfig{MinSplit: 2}, data, 4)
		return elapsed, farm.StealStats()
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 {
		t.Errorf("elapsed differs across identical runs: %v vs %v", e1, e2)
	}
	if s1 != s2 {
		t.Errorf("steal stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
}

// TestRealBackendStealStress hammers concurrent steals on the real-goroutine
// backend: many more packs than workers, tiny packs so deques run dry
// constantly, split thresholds low so hot packs split under contention. Run
// with -race this is the scheduler's data-race gauntlet.
func TestRealBackendStealStress(t *testing.T) {
	const (
		workers  = 8
		elements = 20_000
	)
	dom, class := defineBox(t)
	farm := NewFarm(FarmConfig{
		Class: class, Method: "Work", Workers: workers,
		Split:    splitBy(64),
		Stealing: true,
		Steal:    StealConfig{MinSplit: 4},
	})
	stack := NewStack(dom, farm)
	ctx := exec.Real()

	data := make([]int32, elements)
	var want int64
	for i := range data {
		data[i] = int32(i%100 + 1)
		want += int64(data[i])
	}
	obj, err := class.New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Several dispatch rounds back to back, so scheduler state from one
	// round cannot leak into the next.
	const rounds = 3
	for r := 0; r < rounds; r++ {
		if _, err := class.Call(ctx, obj, "Work", data); err != nil {
			t.Fatal(err)
		}
	}
	if err := stack.Join(ctx); err != nil {
		t.Fatal(err)
	}
	var got int64
	for _, w := range farm.Managed() {
		got += w.(*box).sum()
	}
	if got != want*rounds {
		t.Errorf("total = %d, want %d (packs lost or duplicated under concurrent stealing)", got, want*rounds)
	}
	st := farm.StealStats()
	if st.Executed != st.Seeded+st.Splits {
		t.Errorf("pack accounting broken: %+v", st)
	}
	if !farm.Quiet() {
		t.Error("farm not quiet after Join")
	}
}

// TestTakeWindowedSingleWorkerTakesLastPack pins the fringe-rule fix: a
// single-worker farm has no thieves, so deferring the last local pack only
// drains the pipe before the tail pack. Multi-worker farms must keep
// deferring.
func TestTakeWindowedSingleWorkerTakesLastPack(t *testing.T) {
	solo := newStealScheduler(StealConfig{}, 1)
	solo.seed([][]any{{[]int32{1, 2, 3}}})
	if _, ok, deferred := solo.takeWindowed(0, true); !ok || deferred {
		t.Errorf("single worker: last pack ok=%v deferred=%v, want taken", ok, deferred)
	}
	duo := newStealScheduler(StealConfig{}, 2)
	duo.seed([][]any{{[]int32{1, 2, 3}}, {[]int32{4, 5, 6}}})
	if _, ok, deferred := duo.takeWindowed(0, true); ok || !deferred {
		t.Errorf("two workers: last pack ok=%v deferred=%v, want deferred (stealable)", ok, deferred)
	}
}
