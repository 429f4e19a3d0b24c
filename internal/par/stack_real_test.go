package par

import (
	"testing"

	"aspectpar/internal/aspect"
	"aspectpar/internal/exec"
)

// These tests exercise whole module stacks on the REAL backend (goroutines
// and wall clock), complementing the virtual-time tests in par_test.go: the
// same woven semantics must hold under true concurrency.

func TestRealBackendFarmWithConcurrency(t *testing.T) {
	dom, class := defineBox(t)
	farm := NewFarm(FarmConfig{Class: class, Method: "Work", Workers: 4, Split: splitBy(1)})
	conc := NewConcurrency(aspect.Call("Box", "Work"))
	stack := NewStack(dom, farm, conc)
	ctx := exec.Real()

	obj, err := class.New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int32, 200)
	for i := range data {
		data[i] = 1
	}
	if _, err := class.Call(ctx, obj, "Work", data); err != nil {
		t.Fatal(err)
	}
	if err := stack.Join(ctx); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	sums, err := farm.Collect(ctx, "Sum")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sums {
		total += s.(int64)
	}
	if total != 200 {
		t.Errorf("total = %d, want 200 (lost or duplicated pieces under real concurrency)", total)
	}
	if conc.Spawned() != 200 {
		t.Errorf("spawned = %d, want 200", conc.Spawned())
	}
}

func TestRealBackendDynamicFarm(t *testing.T) {
	dom, class := defineBox(t)
	farm := NewFarm(FarmConfig{Class: class, Method: "Work", Workers: 3, Split: splitBy(2), Dynamic: true})
	stack := NewStack(dom, farm)
	ctx := exec.Real()
	obj, _ := class.New(ctx)
	data := make([]int32, 101)
	for i := range data {
		data[i] = 2
	}
	if _, err := class.Call(ctx, obj, "Work", data); err != nil {
		t.Fatal(err)
	}
	if err := stack.Join(ctx); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, w := range farm.Managed() {
		total += w.(*box).sum()
	}
	if total != 202 {
		t.Errorf("total = %d, want 202", total)
	}
}

func TestRealBackendPipelineWithConcurrency(t *testing.T) {
	dom, class := defineBox(t)
	pipe := NewPipeline(PipelineConfig{Class: class, Method: "Work", Stages: 3, Split: splitBy(5)})
	conc := NewConcurrency(aspect.Call("Box", "Work"))
	stack := NewStack(dom, pipe, conc)
	ctx := exec.Real()
	obj, _ := class.New(ctx)
	data := make([]int32, 50)
	if _, err := class.Call(ctx, obj, "Work", data); err != nil {
		t.Fatal(err)
	}
	if err := stack.Join(ctx); err != nil {
		t.Fatal(err)
	}
	for i, s := range pipe.Managed() {
		if got := len(s.(*box).items); got != 50 {
			t.Errorf("stage %d saw %d items, want 50", i, got)
		}
	}
}
