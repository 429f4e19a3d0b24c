package par

import (
	"fmt"
	"runtime/debug"
	"testing"

	"aspectpar/internal/aspect"
	"aspectpar/internal/exec"
)

// raceBuild reports whether the race detector instruments this test binary,
// under which sync.Pool drops items at random and allocation counts drift.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	if bi != nil {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

func defineNop(dom *Domain) *Class {
	return dom.Define("Nop", func([]any) (any, error) { return new(int), nil },
		map[string]MethodBody{"m": func(target any, args []any) ([]any, error) { return nil, nil }})
}

// TestClassCallAllocs pins the woven call site: with no advice on the method
// it is the sequential body plus a chain lookup — nothing allocated, whichever
// entry the caller used; advised, it is the joinpoint, the body's binding to
// its target and one proceed continuation per advice.
func TestClassCallAllocs(t *testing.T) {
	ctx := exec.Real()
	args := []any{[]int32{1, 2, 3}}
	for _, c := range []struct{ aspects, maxAllocs int }{
		{0, 0},
		{1, 4}, // measured 3
		{4, 7}, // measured 6
	} {
		dom := NewDomain()
		class := defineNop(dom)
		for i := 0; i < c.aspects; i++ {
			dom.Weaver().Plug(aspect.NewAspect(fmt.Sprintf("pass%d", i), i).Around(aspect.Call("Nop", "m"),
				func(jp *aspect.JoinPoint, proceed aspect.ProceedFunc) ([]any, error) { return proceed(nil) }))
		}
		obj, err := class.New(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for name, call := range map[string]func(){
			"Call":     func() { _, _ = class.Call(ctx, obj, "m", args...) },
			"CallWith": func() { _, _ = class.CallWith(ctx, Internal|NoAsync, obj, "m", args...) },
			"Dispatch": func() { _, _ = class.Dispatch(ctx, obj, "m", args) },
		} {
			if avg := testing.AllocsPerRun(1000, call); avg > float64(c.maxAllocs) {
				t.Errorf("%s through %d aspects allocates %.1f objects, budget %d", name, c.aspects, avg, c.maxAllocs)
			}
		}
	}
}

// TestMarksReadBackByName is the contract between the two spellings of a
// mark: whatever a call site attaches through the typed entries (CallWith's
// bits, callWindowed's slot, NewAt's node) reads back under its Mark* name
// through JoinPoint.Bool and JoinPoint.Value, and what CallMarked attaches by
// name lands on the same bits.
func TestMarksReadBackByName(t *testing.T) {
	ctx := exec.Real()
	dom := NewDomain()
	class := defineNop(dom)
	var seen *aspect.JoinPoint
	dom.Weaver().Plug(aspect.NewAspect("observe", 0).Around(aspect.Or(aspect.Call("Nop", "m"), aspect.New("Nop")),
		func(jp *aspect.JoinPoint, proceed aspect.ProceedFunc) ([]any, error) {
			seen = jp
			return proceed(nil)
		}))
	flags := []struct {
		name string
		bit  aspect.Marks
	}{{MarkInternal, Internal}, {MarkRemote, Remote}, {MarkNoAsync, NoAsync}, {MarkVoid, Void}, {markPacked, packed}}
	check := func(site string, want aspect.Marks) {
		t.Helper()
		for _, f := range flags {
			set := want&f.bit != 0
			v, ok := seen.Value(f.name)
			if seen.Bool(f.name) != set || ok != set || (set && v != any(true)) || seen.Marked(f.bit) != set {
				t.Errorf("%s: %s reads Bool=%v Value=%v,%v Marked=%v, want set=%v", site, f.name, seen.Bool(f.name), v, ok, seen.Marked(f.bit), set)
			}
		}
	}
	for _, f := range flags {
		if _, err := class.CallWith(ctx, f.bit, nil, "m"); err != nil {
			t.Fatal(err)
		}
		check("CallWith("+f.name+")", f.bit)
		if _, err := class.CallMarked(ctx, map[string]any{f.name: true}, nil, "m"); err != nil {
			t.Fatal(err)
		}
		check("CallMarked("+f.name+")", f.bit)
	}
	if _, err := class.Dispatch(ctx, nil, "m", nil); err != nil {
		t.Fatal(err)
	}
	check("Dispatch", Remote)
	if _, err := class.Call(ctx, nil, "m"); err != nil {
		t.Fatal(err)
	}
	check("Call", 0)

	slot := &windowSlot{}
	if _, err := class.callWindowed(ctx, slot, nil, "m", nil); err != nil {
		t.Fatal(err)
	}
	check("callWindowed", Internal|NoAsync)
	if v, ok := seen.Value(MarkWindowed); !ok || v != any(slot) {
		t.Errorf("callWindowed: %s reads %v,%v, want the slot", MarkWindowed, v, ok)
	}
	if _, err := class.NewAt(ctx, exec.NodeID(3)); err != nil {
		t.Fatal(err)
	}
	check("NewAt", Internal|NoAsync)
	if v, ok := seen.Value(MarkPlaceAt); !ok || v != any(exec.NodeID(3)) {
		t.Errorf("NewAt: %s reads %v,%v, want node 3", MarkPlaceAt, v, ok)
	}
	if _, ok := seen.Value(MarkWindowed); ok {
		t.Errorf("NewAt: %s is set on a joinpoint nobody put it on", MarkWindowed)
	}

	// A name nobody registered still travels, as a value.
	if _, err := class.CallMarked(ctx, map[string]any{"app.tag": 7, MarkVoid: true}, nil, "m"); err != nil {
		t.Fatal(err)
	}
	check("CallMarked(app.tag, void)", Void)
	if v, ok := seen.Value("app.tag"); !ok || v != any(7) {
		t.Errorf("CallMarked: app.tag reads %v,%v, want 7", v, ok)
	}
	// Advice clears a mark the way it sets one.
	seen.Set(MarkVoid, false)
	check("Set(void, false)", 0)
}

// TestNetRMIAllocsPerCall pins the whole-process cost of one windowed NetRMI
// call — driver, transport and node in this process — with the journal
// failing fast and with it recovering: the call's journal entry and its
// completion on the driver, the argument and result lists each side decodes,
// the servant's own result, and under a recovering policy the node's dedupe
// record plus the journal's history and checkpoint traffic.
func TestNetRMIAllocsPerCall(t *testing.T) {
	if raceBuild() {
		t.Skip("allocation counts are not stable under the race detector")
	}
	for _, c := range []struct {
		name      string
		opts      []NetOption
		maxAllocs float64
	}{
		{"fail-fast", nil, 9}, // measured 8.00
		{"journaled", []NetOption{WithFaultPolicy(FaultPolicy{Enabled: true, CheckpointEvery: 256})}, 11}, // measured 10.00
	} {
		t.Run(c.name, func(t *testing.T) {
			g := startGate(t, append([]NetOption{WithStreams(3)}, c.opts...)...)
			obj := g.export(t, "PS1")
			args := []any{make([]int32, 16)}
			done := g.ctx.NewChan(1)
			call := func() {
				g.mw.InvokeAsync(g.ctx, obj, "Echo", args, false, done)
				v, _ := done.Recv(g.ctx)
				if _, err := v.(*Completion).Reclaim(g.ctx); err != nil {
					t.Fatal(err)
				}
			}
			call() // warm the path
			avg := testing.AllocsPerRun(2000, call)
			t.Logf("%s: %.2f allocations per windowed call", c.name, avg)
			if avg > c.maxAllocs {
				t.Errorf("%s windowed NetRMI call allocates %.1f objects, budget %.0f", c.name, avg, c.maxAllocs)
			}
		})
	}
}
