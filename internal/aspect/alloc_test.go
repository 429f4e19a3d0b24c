package aspect

import (
	"fmt"
	"testing"
)

// passThrough plugs n around-advice aspects that only proceed.
func passThrough(w *Weaver, n int) {
	for i := 0; i < n; i++ {
		w.Plug(NewAspect(fmt.Sprintf("pass%d", i), i).Around(Call("T", "m"),
			func(jp *JoinPoint, proceed ProceedFunc) ([]any, error) { return proceed(nil) }))
	}
}

// TestWovenZeroAdviceAllocs pins what weaving costs a call no advice applies
// to: the chain lookup and the body, with no joinpoint built — zero
// allocations. (A call site that passes its arguments variadically pays for
// that list itself, before the weaver runs; the list here is prebuilt.)
func TestWovenZeroAdviceAllocs(t *testing.T) {
	w := NewWeaver()
	w.Plug(NewAspect("elsewhere", 0).Around(Call("Other", "m"),
		func(jp *JoinPoint, proceed ProceedFunc) ([]any, error) { return proceed(nil) }))
	body := func(args []any) ([]any, error) { return nil, nil }
	args := []any{[]int32{1, 2, 3}}
	if avg := testing.AllocsPerRun(1000, func() { _, _ = w.Call(nil, nil, "T", "m", body, args...) }); avg != 0 {
		t.Errorf("a woven call with no matching advice allocates %.1f objects, want 0", avg)
	}
}

// TestWovenAdvisedAllocsPerCall pins the advised path: the joinpoint, plus one
// proceed continuation per advice in the chain.
func TestWovenAdvisedAllocsPerCall(t *testing.T) {
	body := func(args []any) ([]any, error) { return nil, nil }
	args := []any{[]int32{1, 2, 3}}
	for _, c := range []struct{ aspects, maxAllocs int }{
		{1, 3}, // measured 2
		{4, 6}, // measured 5
	} {
		w := NewWeaver()
		passThrough(w, c.aspects)
		avg := testing.AllocsPerRun(1000, func() { _, _ = w.Call(nil, nil, "T", "m", body, args...) })
		if avg > float64(c.maxAllocs) {
			t.Errorf("a woven call through %d pass-through aspects allocates %.1f objects, budget %d", c.aspects, avg, c.maxAllocs)
		}
	}
}
