package par

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"aspectpar/internal/aspect"
	"aspectpar/internal/cluster"
	"aspectpar/internal/exec"
	"aspectpar/internal/sim"
)

// intRange is a test Lazy: the N consecutive integers from From.
type intRange struct{ From, N int }

func (r intRange) Len() int { return r.N }

func (r intRange) Halve() (a, b Lazy) {
	mid := r.N / 2
	return intRange{r.From, mid}, intRange{r.From + mid, r.N - mid}
}

func (r intRange) Build() []int32 {
	out := make([]int32, r.N)
	for i := range out {
		out[i] = int32(r.From + i)
	}
	return out
}

// rangeSplit cuts the intRange argument into packs of the given sizes, each
// handed on as a Lazy or built up front.
func rangeSplit(lazy bool, sizes ...int) func([]any) [][]any {
	return func(args []any) [][]any {
		at := args[0].(intRange).From
		var parts [][]any
		for _, n := range sizes {
			var pk any = intRange{at, n}
			if !lazy {
				pk = intRange{at, n}.Build()
			}
			parts = append(parts, []any{pk})
			at += n
		}
		return parts
	}
}

// lazySpy is the simulated middleware counting every call that reached it
// with a Lazy argument.
type lazySpy struct {
	*simMW
	lazies atomic.Int64
}

func (s *lazySpy) see(args []any) {
	for _, a := range args {
		if _, ok := a.(Lazy); ok {
			s.lazies.Add(1)
		}
	}
}

func (s *lazySpy) Invoke(ctx exec.Context, obj any, method string, args []any, void bool) ([]any, error) {
	s.see(args)
	return s.simMW.Invoke(ctx, obj, method, args, void)
}

func (s *lazySpy) InvokeAsync(ctx exec.Context, obj any, method string, args []any, void bool, done exec.Chan) {
	s.see(args)
	s.simMW.InvokeAsync(ctx, obj, method, args, void, done)
}

// lazyCell is what one run reports: every replica's items in arrival order,
// the farm's scheduler counters, the virtual time and the Lazy arguments
// the middleware saw.
type lazyCell struct {
	items   [][]int32
	steals  StealStats
	elapsed string
	lazies  int64
}

// runLazyCell runs one partition over the simulated middleware, the core
// call's argument an intRange of total elements cut by rangeSplit.
func runLazyCell(t *testing.T, partition func(*Class, func([]any) [][]any) Module, total int, lazy bool, sizes ...int) lazyCell {
	t.Helper()
	dom, class := defineBox(t)
	cl := cluster.New(sim.NewEngine(), cluster.PaperTestbed())
	spy := &lazySpy{simMW: NewSimRMI(cl).(*simMW)}
	part := partition(class, rangeSplit(lazy, sizes...))
	dist := NewDistribution(dom, aspect.New("Box"), aspect.Call("Box", "*"), spy, RoundRobin(1, 6))
	meter := NewMetering(aspect.Call("Box", "Work"), 1e5, 0)
	stack := NewStack(dom, part, dist, meter)
	err := cl.Run(func(ctx exec.Context) {
		obj, err := class.New(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := class.Call(ctx, obj, "Work", intRange{100, total}); err != nil {
			t.Error(err)
		}
		if err := stack.Join(ctx); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	c := lazyCell{elapsed: cl.Elapsed().String(), lazies: spy.lazies.Load()}
	var managed []any
	switch m := part.(type) {
	case *Farm:
		managed, c.steals = m.Managed(), m.StealStats()
	case *Pipeline:
		managed = m.Managed()
	}
	for _, w := range managed {
		c.items = append(c.items, slices.Clone(w.(*box).items))
	}
	return c
}

// TestLazyPacksRunAsBuiltPacks: a partition fed Lazy packs runs exactly as
// one fed the same packs built — the same elements on the same replicas in
// the same order, the same scheduler counters and virtual time — and no
// middleware call ever carries a Lazy.
func TestLazyPacksRunAsBuiltPacks(t *testing.T) {
	farm := func(cfg FarmConfig) func(*Class, func([]any) [][]any) Module {
		return func(class *Class, split func([]any) [][]any) Module {
			cfg.Class, cfg.Method, cfg.Split = class, "Work", split
			return NewFarm(cfg)
		}
	}
	pipeline := func(class *Class, split func([]any) [][]any) Module {
		return NewPipeline(PipelineConfig{Class: class, Method: "Work", Stages: 3, Split: split})
	}
	skewed := []int{20, 10, 10, 20, 10, 10, 600}
	cells := []struct {
		name      string
		partition func(*Class, func([]any) [][]any) Module
		sizes     []int
		copies    int  // how many replicas see each element
		splits    bool // whether the scheduler must split a pack
	}{
		{"stealing/skewed", farm(FarmConfig{Workers: 3, Stealing: true, Steal: StealConfig{MinSplit: 8}}), skewed, 1, true},
		{"stealing/one-pack", farm(FarmConfig{Workers: 4, Stealing: true, Steal: StealConfig{MinSplit: 8}}), []int{300}, 1, true},
		{"stealing/window-1", farm(FarmConfig{Workers: 3, Stealing: true, Window: 1, Steal: StealConfig{MinSplit: 8}}), skewed, 1, true},
		{"dynamic", farm(FarmConfig{Workers: 3, Dynamic: true}), skewed, 1, false},
		{"static", farm(FarmConfig{Workers: 3}), skewed, 1, false},
		{"pipeline", pipeline, skewed, 3, false},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			total := 0
			for _, n := range c.sizes {
				total += n
			}
			lazy := runLazyCell(t, c.partition, total, true, c.sizes...)
			eager := runLazyCell(t, c.partition, total, false, c.sizes...)
			if lazy.lazies != 0 || eager.lazies != 0 {
				t.Errorf("the middleware saw %d Lazy arguments (%d with built packs), want 0", lazy.lazies, eager.lazies)
			}
			if got, want := fmt.Sprint(lazy.items), fmt.Sprint(eager.items); got != want {
				t.Errorf("replicas received\n%s\nwith Lazy packs, and\n%s\nwith built ones", got, want)
			}
			if lazy.steals != eager.steals || lazy.elapsed != eager.elapsed {
				t.Errorf("Lazy packs: %+v in %s; built packs: %+v in %s", lazy.steals, lazy.elapsed, eager.steals, eager.elapsed)
			}
			t.Logf("%+v in %s", lazy.steals, lazy.elapsed)
			if st := lazy.steals; st.Executed != st.Seeded+st.Splits {
				t.Errorf("pack accounting broken: %+v", st)
			}
			if c.splits && lazy.steals.Splits == 0 {
				t.Errorf("no pack was split, so Halve went unexercised: %+v", lazy.steals)
			}
			seen := 0
			for _, items := range lazy.items {
				seen += len(items)
			}
			if seen != c.copies*total {
				t.Errorf("replicas saw %d elements, want %d", seen, c.copies*total)
			}
		})
	}
}

// TestSplitLazyPayloadHalvesAsBuilt: splitInt32Payload halves a Lazy at the
// midpoint it halves the built pack at, and refuses the same sizes.
func TestSplitLazyPayloadHalvesAsBuilt(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 15, 16, 17, 64, 127, 128, 129, 1001} {
		for _, minSplit := range []int{1, 8, 64} {
			r := intRange{7, n}
			la, lb, lok := splitInt32Payload([]any{r}, minSplit)
			ba, bb, bok := splitInt32Payload([]any{r.Build()}, minSplit)
			if lok != bok {
				t.Fatalf("n=%d min=%d: Lazy split %v, built split %v", n, minSplit, lok, bok)
			}
			if !lok {
				continue
			}
			for i, pair := range [][2][]any{{la, ba}, {lb, bb}} {
				got := pair[0][0].(Lazy).Build()
				if want := pair[1][0].([]int32); !slices.Equal(got, want) {
					t.Errorf("n=%d min=%d half %d: Lazy builds %v, built half is %v", n, minSplit, i, got, want)
				}
			}
		}
	}
}
