package aspect

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// point mirrors the paper's Figure 1 Point class: a plain core object.
type point struct{ x, y int }

// woven call sites, as the AspectJ compiler would produce them.
func (p *point) moveX(w *Weaver, delta int) error {
	_, err := w.Call(nil, p, "Point", "moveX", func(args []any) ([]any, error) {
		p.x += args[0].(int)
		return nil, nil
	}, delta)
	return err
}

func (p *point) moveY(w *Weaver, delta int) error {
	_, err := w.Call(nil, p, "Point", "moveY", func(args []any) ([]any, error) {
		p.y += args[0].(int)
		return nil, nil
	}, delta)
	return err
}

func TestNoAspectsIsIdentity(t *testing.T) {
	w := NewWeaver()
	p := &point{}
	if err := p.moveX(w, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.moveY(w, 5); err != nil {
		t.Fatal(err)
	}
	if p.x != 10 || p.y != 5 {
		t.Errorf("point = %+v, want {10 5}", *p)
	}
}

func TestLoggingAspect(t *testing.T) {
	// The paper's Figure 3: around advice on Point.move*.
	var log []string
	logging := NewAspect("Logging", 0).AroundP("call(Point.move*(..))",
		func(jp *JoinPoint, proceed ProceedFunc) ([]any, error) {
			log = append(log, "Move called: "+jp.Method)
			return proceed(nil)
		})
	w := NewWeaver().Plug(logging)
	p := &point{}
	_ = p.moveX(w, 1)
	_ = p.moveY(w, 2)
	if len(log) != 2 || log[0] != "Move called: moveX" || log[1] != "Move called: moveY" {
		t.Errorf("log = %v", log)
	}
	if p.x != 1 || p.y != 2 {
		t.Errorf("advice must proceed to the body; point = %+v", *p)
	}
}

func TestUnplugRestoresSequentialBehaviour(t *testing.T) {
	calls := 0
	counting := NewAspect("count", 0).BeforeP("call(Point.*(..))", func(*JoinPoint) { calls++ })
	w := NewWeaver().Plug(counting)
	p := &point{}
	_ = p.moveX(w, 1)
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	if !w.Unplug(counting) {
		t.Fatal("Unplug should report true for a plugged aspect")
	}
	_ = p.moveX(w, 1)
	if calls != 1 {
		t.Errorf("advice ran after unplug; calls = %d", calls)
	}
	if p.x != 2 {
		t.Errorf("core behaviour altered after unplug; x = %d", p.x)
	}
	if w.Unplug(counting) {
		t.Error("second Unplug should report false")
	}
}

func TestDisableEnableAspect(t *testing.T) {
	calls := 0
	a := NewAspect("count", 0).BeforeP("call(Point.*(..))", func(*JoinPoint) { calls++ })
	w := NewWeaver().Plug(a)
	p := &point{}
	a.SetEnabled(false)
	_ = p.moveX(w, 1)
	if calls != 0 {
		t.Errorf("disabled aspect ran; calls = %d", calls)
	}
	a.SetEnabled(true)
	_ = p.moveX(w, 1)
	if calls != 1 {
		t.Errorf("re-enabled aspect did not run; calls = %d", calls)
	}
	if !a.Enabled() {
		t.Error("Enabled() should be true")
	}
}

func TestPrecedenceOrdersAroundNesting(t *testing.T) {
	var order []string
	mk := func(name string, prec int) *Aspect {
		return NewAspect(name, prec).AroundP("call(T.m(..))",
			func(jp *JoinPoint, proceed ProceedFunc) ([]any, error) {
				order = append(order, name+">")
				r, err := proceed(nil)
				order = append(order, "<"+name)
				return r, err
			})
	}
	// Plug in an order different from precedence to prove precedence wins.
	w := NewWeaver().Plug(mk("inner", 1), mk("outer", 9), mk("mid", 5))
	_, err := w.Call(nil, nil, "T", "m", func([]any) ([]any, error) {
		order = append(order, "body")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "outer>,mid>,inner>,body,<inner,<mid,<outer"
	if got := strings.Join(order, ","); got != want {
		t.Errorf("order = %s, want %s", got, want)
	}
}

func TestEqualPrecedenceUsesPlugOrder(t *testing.T) {
	var order []string
	mk := func(name string) *Aspect {
		return NewAspect(name, 0).BeforeP("call(T.m(..))", func(*JoinPoint) {
			order = append(order, name)
		})
	}
	w := NewWeaver().Plug(mk("first"), mk("second"), mk("third"))
	_, _ = w.Call(nil, nil, "T", "m", func([]any) ([]any, error) { return nil, nil })
	if got := strings.Join(order, ","); got != "first,second,third" {
		t.Errorf("order = %s", got)
	}
}

func TestAroundCanSkipBody(t *testing.T) {
	ran := false
	skip := NewAspect("skip", 0).AroundP("call(T.m(..))",
		func(jp *JoinPoint, proceed ProceedFunc) ([]any, error) {
			return []any{"replaced"}, nil // never proceeds
		})
	w := NewWeaver().Plug(skip)
	res, err := w.Call(nil, nil, "T", "m", func([]any) ([]any, error) {
		ran = true
		return []any{"original"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("body must not run when advice does not proceed")
	}
	if len(res) != 1 || res[0] != "replaced" {
		t.Errorf("res = %v", res)
	}
}

func TestAroundCanProceedMultipleTimes(t *testing.T) {
	// The paper's method-call split: one call becomes several.
	split := NewAspect("split", 0).AroundP("call(T.m(..))",
		func(jp *JoinPoint, proceed ProceedFunc) ([]any, error) {
			for i := 0; i < 3; i++ {
				if _, err := proceed([]any{i}); err != nil {
					return nil, err
				}
			}
			return nil, nil
		})
	w := NewWeaver().Plug(split)
	var got []int
	_, err := w.Call(nil, nil, "T", "m", func(args []any) ([]any, error) {
		got = append(got, args[0].(int))
		return nil, nil
	}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("got = %v, want [0 1 2]", got)
	}
}

func TestProceedArgumentRebindingIsScoped(t *testing.T) {
	// Outer advice sees the original args again after inner advice rebinds.
	var outerAfter any
	outer := NewAspect("outer", 2).AroundP("call(T.m(..))",
		func(jp *JoinPoint, proceed ProceedFunc) ([]any, error) {
			r, err := proceed(nil)
			outerAfter = jp.Arg(0)
			return r, err
		})
	inner := NewAspect("inner", 1).AroundP("call(T.m(..))",
		func(jp *JoinPoint, proceed ProceedFunc) ([]any, error) {
			return proceed([]any{"rebound"})
		})
	w := NewWeaver().Plug(outer, inner)
	var bodySaw any
	_, _ = w.Call(nil, nil, "T", "m", func(args []any) ([]any, error) {
		bodySaw = args[0]
		return nil, nil
	}, "orig")
	if bodySaw != "rebound" {
		t.Errorf("body saw %v, want rebound", bodySaw)
	}
	if outerAfter != "orig" {
		t.Errorf("outer advice saw %v after proceed, want orig restored", outerAfter)
	}
}

// TestProceedTwiceRestoresArgs: an around advice that proceeds twice with
// different argument lists (the method-call split) finds the joinpoint's own
// arguments back after each, and inner advice and the body see each rebinding.
func TestProceedTwiceRestoresArgs(t *testing.T) {
	var between, after any
	split := NewAspect("split", 2).AroundP("call(T.m(..))",
		func(jp *JoinPoint, proceed ProceedFunc) ([]any, error) {
			if _, err := proceed([]any{"first"}); err != nil {
				return nil, err
			}
			between = jp.Arg(0)
			_, err := proceed([]any{"second"})
			after = jp.Arg(0)
			return nil, err
		})
	var innerSaw, bodySaw []any
	inner := NewAspect("inner", 1).AroundP("call(T.m(..))",
		func(jp *JoinPoint, proceed ProceedFunc) ([]any, error) {
			innerSaw = append(innerSaw, jp.Arg(0))
			return proceed(nil)
		})
	w := NewWeaver().Plug(split, inner)
	_, _ = w.Call(nil, nil, "T", "m", func(args []any) ([]any, error) {
		bodySaw = append(bodySaw, args[0])
		return nil, nil
	}, "orig")
	if between != "orig" || after != "orig" {
		t.Errorf("split advice saw %v between and %v after its proceeds, want orig both times", between, after)
	}
	if fmt.Sprint(innerSaw) != "[first second]" || fmt.Sprint(bodySaw) != "[first second]" {
		t.Errorf("inner advice saw %v, body saw %v, want [first second] each", innerSaw, bodySaw)
	}
}

// TestProceedStaysValidAfterAdviceReturns: an advice may hand its proceed to
// another activity and return (the concurrency module does); run later, it
// still continues from that advice's place in the chain — inner advice and
// body once each, outer advice not again.
func TestProceedStaysValidAfterAdviceReturns(t *testing.T) {
	var trace []string
	note := func(name string) AroundAdvice {
		return func(jp *JoinPoint, proceed ProceedFunc) ([]any, error) {
			trace = append(trace, name)
			return proceed(nil)
		}
	}
	var later ProceedFunc
	detach := func(jp *JoinPoint, proceed ProceedFunc) ([]any, error) {
		trace = append(trace, "detach")
		later = proceed
		return nil, nil
	}
	w := NewWeaver().Plug(
		NewAspect("outer", 3).AroundP("call(T.m(..))", note("outer")),
		NewAspect("detach", 2).AroundP("call(T.m(..))", detach),
		NewAspect("inner", 1).AroundP("call(T.m(..))", note("inner")))
	body := func([]any) ([]any, error) { trace = append(trace, "body"); return nil, nil }
	if _, err := w.Call(nil, nil, "T", "m", body); err != nil {
		t.Fatal(err)
	}
	if _, err := later(nil); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(trace); got != "[outer detach inner body]" {
		t.Errorf("trace = %s, want [outer detach inner body]", got)
	}
}

// TestSiteFollowsReconfiguration: a call site keeps its compiled chain only
// while the configuration it was compiled under stands.
func TestSiteFollowsReconfiguration(t *testing.T) {
	w := NewWeaver()
	site := w.Site(Shadow{Kind: KindCall, Type: "T", Method: "m"})
	if !site.Chain().Empty() {
		t.Fatal("empty weaver: the site's chain should be empty")
	}
	a := NewAspect("a", 0)
	w.Plug(a)
	if !site.Chain().Empty() {
		t.Error("an aspect with no advice should leave the chain empty")
	}
	ran := 0
	a.AroundP("call(T.m(..))", func(jp *JoinPoint, proceed ProceedFunc) ([]any, error) {
		ran++
		return proceed(nil)
	})
	jp := &JoinPoint{Kind: KindCall, Type: "T", Method: "m"}
	if _, err := site.Chain().Run(jp, func([]any) ([]any, error) { return nil, nil }); err != nil || ran != 1 {
		t.Errorf("advice added after the site was first used ran %d times (err %v), want 1", ran, err)
	}
	a.SetEnabled(false)
	if !site.Chain().Empty() {
		t.Error("a disabled aspect should leave the chain empty")
	}
	a.SetEnabled(true)
	w.Unplug(a)
	if !site.Chain().Empty() {
		t.Error("an unplugged aspect should leave the chain empty")
	}
}

func TestConstructionAdviceDuplication(t *testing.T) {
	// The paper's Figure 8 block 1: around(PrimeFilter.new) creating a set
	// of objects and returning the first.
	type filter struct{ id int }
	var created []*filter
	dup := NewAspect("Partition", 0).AroundP("new(Filter)",
		func(jp *JoinPoint, proceed ProceedFunc) ([]any, error) {
			for i := 0; i < 4; i++ {
				res, err := proceed([]any{i})
				if err != nil {
					return nil, err
				}
				created = append(created, res[0].(*filter))
			}
			return []any{created[0]}, nil
		})
	w := NewWeaver().Plug(dup)
	obj, err := w.New(nil, "Filter", func(args []any) ([]any, error) {
		return []any{&filter{id: args[0].(int)}}, nil
	}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != 4 {
		t.Fatalf("created %d objects, want 4", len(created))
	}
	if obj.(*filter) != created[0] {
		t.Error("client must receive the first aspect-managed object")
	}
}

func TestNewWithoutAdvice(t *testing.T) {
	w := NewWeaver()
	obj, err := w.New(nil, "Filter", func(args []any) ([]any, error) {
		return []any{args[0].(string) + "!"}, nil
	}, "hi")
	if err != nil {
		t.Fatal(err)
	}
	if obj != "hi!" {
		t.Errorf("obj = %v", obj)
	}
}

func TestNewRequiresObject(t *testing.T) {
	w := NewWeaver()
	_, err := w.New(nil, "Filter", func([]any) ([]any, error) { return nil, nil })
	if err == nil {
		t.Error("New must fail when the body produces no object")
	}
}

func TestAfterFormsDistinguishOutcome(t *testing.T) {
	var events []string
	a := NewAspect("a", 0)
	pc := MustParsePointcut("call(T.*(..))")
	a.After(pc, func(jp *JoinPoint, res []any, err error) {
		events = append(events, fmt.Sprintf("after(err=%v)", err != nil))
	})
	a.AfterReturning(pc, func(jp *JoinPoint, res []any) {
		events = append(events, "returning:"+res[0].(string))
	})
	a.AfterError(pc, func(jp *JoinPoint, err error) {
		events = append(events, "error:"+err.Error())
	})
	w := NewWeaver().Plug(a)

	_, _ = w.Call(nil, nil, "T", "ok", func([]any) ([]any, error) { return []any{"fine"}, nil })
	boom := errors.New("boom")
	_, err := w.Call(nil, nil, "T", "fail", func([]any) ([]any, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}

	joined := strings.Join(events, "|")
	wantFrags := []string{"after(err=false)", "returning:fine", "after(err=true)", "error:boom"}
	for _, f := range wantFrags {
		if !strings.Contains(joined, f) {
			t.Errorf("events = %q, missing %q", joined, f)
		}
	}
	if strings.Contains(joined, "returning:") && strings.Count(joined, "returning:") != 1 {
		t.Errorf("AfterReturning must fire once: %q", joined)
	}
}

func TestBeforeAdviceSeesArgs(t *testing.T) {
	var saw any
	a := NewAspect("a", 0).BeforeP("call(T.m(..))", func(jp *JoinPoint) { saw = jp.Arg(0) })
	w := NewWeaver().Plug(a)
	_, _ = w.Call(nil, nil, "T", "m", func([]any) ([]any, error) { return nil, nil }, 42)
	if saw != 42 {
		t.Errorf("before advice saw %v", saw)
	}
}

func TestJoinPointContextValues(t *testing.T) {
	outer := NewAspect("outer", 2).AroundP("call(T.m(..))",
		func(jp *JoinPoint, proceed ProceedFunc) ([]any, error) {
			jp.Set("remote", true)
			return proceed(nil)
		})
	var sawRemote bool
	inner := NewAspect("inner", 1).AroundP("call(T.m(..))",
		func(jp *JoinPoint, proceed ProceedFunc) ([]any, error) {
			sawRemote = jp.Bool("remote")
			return proceed(nil)
		})
	w := NewWeaver().Plug(outer, inner)
	_, _ = w.Call(nil, nil, "T", "m", func([]any) ([]any, error) { return nil, nil })
	if !sawRemote {
		t.Error("inner advice should see context set by outer advice")
	}
	jp := &JoinPoint{}
	if _, ok := jp.Value("missing"); ok {
		t.Error("missing key should report !ok")
	}
	if jp.Bool("missing") {
		t.Error("missing bool key should be false")
	}
}

func TestJoinPointSignatureAndArg(t *testing.T) {
	jp := &JoinPoint{Kind: KindCall, Type: "A", Method: "f", Args: []any{1}}
	if jp.Signature() != "call(A.f)" {
		t.Errorf("Signature = %q", jp.Signature())
	}
	njp := &JoinPoint{Kind: KindNew, Type: "A"}
	if njp.Signature() != "new(A)" {
		t.Errorf("Signature = %q", njp.Signature())
	}
	if jp.Arg(5) != nil || jp.Arg(-1) != nil {
		t.Error("out-of-range Arg must be nil")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestAddingAdviceInvalidatesCache(t *testing.T) {
	a := NewAspect("a", 0)
	w := NewWeaver().Plug(a)
	p := &point{}
	_ = p.moveX(w, 1) // primes the cache with an empty chain
	calls := 0
	a.BeforeP("call(Point.moveX(..))", func(*JoinPoint) { calls++ })
	_ = p.moveX(w, 1)
	if calls != 1 {
		t.Errorf("advice added after cache priming did not run; calls = %d", calls)
	}
}

func TestPlugNilAndDoublePanics(t *testing.T) {
	w := NewWeaver()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Plug(nil) should panic")
			}
		}()
		w.Plug(nil)
	}()
	a := NewAspect("a", 0)
	w.Plug(a)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Plug should panic")
			}
		}()
		w.Plug(a)
	}()
}

func TestAspectsAccessorAndString(t *testing.T) {
	a := NewAspect("conc", 3).BeforeP("call(T.m(..))", func(*JoinPoint) {})
	w := NewWeaver().Plug(a)
	as := w.Aspects()
	if len(as) != 1 || as[0] != a {
		t.Errorf("Aspects() = %v", as)
	}
	if a.Name() != "conc" || a.Precedence() != 3 {
		t.Errorf("accessors wrong: %q %d", a.Name(), a.Precedence())
	}
	s := a.String()
	if !strings.Contains(s, "conc") || !strings.Contains(s, "1 advice") {
		t.Errorf("String() = %q", s)
	}
	a.SetEnabled(false)
	if !strings.Contains(a.String(), "disabled") {
		t.Errorf("String() should show disabled: %q", a.String())
	}
}

func TestNilPointcutPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil pointcut should panic")
		}
	}()
	NewAspect("a", 0).Around(nil, func(jp *JoinPoint, p ProceedFunc) ([]any, error) { return p(nil) })
}

func TestConcurrentDispatchAndReconfiguration(t *testing.T) {
	// Hammer the weaver from several goroutines while plugging/unplugging,
	// asserting no lost updates on the core object and no panics.
	w := NewWeaver()
	var mu sync.Mutex
	counter := 0
	body := func([]any) ([]any, error) {
		mu.Lock()
		counter++
		mu.Unlock()
		return nil, nil
	}
	noise := NewAspect("noise", 0).AroundP("call(T.m(..))",
		func(jp *JoinPoint, proceed ProceedFunc) ([]any, error) { return proceed(nil) })

	const workers, iters = 8, 200
	var wg sync.WaitGroup
	wg.Add(workers + 1)
	for g := 0; g < workers; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := w.Call(nil, nil, "T", "m", body); err != nil {
					t.Errorf("Call: %v", err)
					return
				}
			}
		}()
	}
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			w.Plug(noise)
			w.Unplug(noise)
		}
	}()
	wg.Wait()
	if counter != workers*iters {
		t.Errorf("counter = %d, want %d", counter, workers*iters)
	}
}

func TestDispatchExplicitJoinPoint(t *testing.T) {
	var sawCtx any
	a := NewAspect("a", 0).AroundP("call(T.m(..))",
		func(jp *JoinPoint, proceed ProceedFunc) ([]any, error) {
			sawCtx = jp.Ctx
			return proceed(nil)
		})
	w := NewWeaver().Plug(a)
	jp := &JoinPoint{Kind: KindCall, Type: "T", Method: "m", Ctx: "the-context"}
	jp.Set("pre", 1)
	_, err := w.Dispatch(jp, func([]any) ([]any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if sawCtx != "the-context" {
		t.Errorf("Ctx = %v", sawCtx)
	}
}

func BenchmarkDirectCall(b *testing.B) {
	p := &point{}
	for i := 0; i < b.N; i++ {
		p.x += 1
	}
	_ = p.x
}

func BenchmarkWovenCallNoAspects(b *testing.B) {
	w := NewWeaver()
	p := &point{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.moveX(w, 1)
	}
}

func BenchmarkWovenCallOneAround(b *testing.B) {
	a := NewAspect("a", 0).AroundP("call(Point.moveX(..))",
		func(jp *JoinPoint, proceed ProceedFunc) ([]any, error) { return proceed(nil) })
	w := NewWeaver().Plug(a)
	p := &point{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.moveX(w, 1)
	}
}

func BenchmarkWovenCallFourAspects(b *testing.B) {
	w := NewWeaver()
	for i := 0; i < 4; i++ {
		w.Plug(NewAspect(fmt.Sprintf("a%d", i), i).AroundP("call(Point.moveX(..))",
			func(jp *JoinPoint, proceed ProceedFunc) ([]any, error) { return proceed(nil) }))
	}
	p := &point{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.moveX(w, 1)
	}
}
