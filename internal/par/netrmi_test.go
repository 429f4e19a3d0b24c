package par

import (
	"errors"
	"strings"
	"testing"
	"time"

	"aspectpar/internal/exec"
	"aspectpar/internal/rmi"
)

// netGate is the test fixture of the real middleware's failure modes: a
// node daemon hosting a "Gate" class whose Block method parks on a channel
// the test controls, so calls can be caught provably in flight when the
// peer crashes or the client closes.
type netGate struct {
	node    *rmi.Node
	mw      *NetRMI
	class   *Class // client-side twin of the hosted class
	ctx     exec.Context
	started chan struct{} // one tick per Block entered
	release chan struct{} // closed to let blocked calls finish
}

func defineGate(dom *Domain, started chan struct{}, release chan struct{}) *Class {
	return dom.Define("Gate",
		func(args []any) (any, error) { return new(int64), nil },
		map[string]MethodBody{
			// Bump/Count give the object observable state, so one-way calls
			// can be checked for having been applied exactly once.
			"Bump": func(target any, args []any) ([]any, error) {
				*target.(*int64)++
				return nil, nil
			},
			"Count": func(target any, args []any) ([]any, error) {
				return []any{*target.(*int64)}, nil
			},
			"Echo": func(target any, args []any) ([]any, error) {
				return args, nil
			},
			"Block": func(target any, args []any) ([]any, error) {
				if started != nil {
					started <- struct{}{}
				}
				if release != nil {
					<-release
				}
				return []any{"unblocked"}, nil
			},
			"Boom": func(target any, args []any) ([]any, error) {
				return nil, errors.New("servant failure")
			},
		}).Wire([]int32(nil), int64(0))
}

func startGate(t *testing.T, opts ...NetOption) *netGate {
	t.Helper()
	g := &netGate{
		ctx:     exec.Real(),
		started: make(chan struct{}, 16),
		release: make(chan struct{}),
	}
	g.node = rmi.NewNode(exec.Real())
	HostClass(g.node, defineGate(NewDomain(), g.started, g.release))
	addr, err := g.node.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	if g.mw, err = DialNet(NetAddressTable(addr), opts...); err != nil {
		t.Fatal(err)
	}
	// The client-side twin: only its name and wire metadata cross the seam.
	g.class = defineGate(NewDomain(), nil, nil)
	t.Cleanup(func() {
		g.mw.Close()
		select {
		case <-g.release:
		default:
			close(g.release)
		}
		g.node.Close()
	})
	return g
}

func (g *netGate) export(t *testing.T, name string) any {
	t.Helper()
	obj, err := g.mw.ExportNew(g.ctx, name, 0, g.class, nil, nil)
	if err != nil {
		t.Fatalf("export %s: %v", name, err)
	}
	return obj
}

func TestNetRMIExportAndInvoke(t *testing.T) {
	g := startGate(t)
	obj := g.export(t, "PS1")
	if _, ok := obj.(*NetRef); !ok {
		t.Fatalf("ExportNew returned %T, want *NetRef remote reference", obj)
	}
	if node, ok := g.mw.NodeOf(obj); !ok || node != 0 {
		t.Errorf("NodeOf = %v,%v, want 0,true", node, ok)
	}
	res, err := g.mw.Invoke(g.ctx, obj, "Echo", []any{[]int32{7, 11}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].([]int32); len(got) != 2 || got[0] != 7 || got[1] != 11 {
		t.Errorf("Echo = %v", res)
	}
	var re *rmi.RemoteError
	if _, err := g.mw.Invoke(g.ctx, obj, "Boom", nil, false); !errors.As(err, &re) {
		t.Errorf("Boom = %v, want RemoteError", err)
	}
	if g.mw.Stats().Messages == 0 {
		t.Error("no traffic counted")
	}
}

func TestNetRMIDoubleExportRejected(t *testing.T) {
	g := startGate(t)
	g.export(t, "PS1")
	_, err := g.mw.ExportNew(g.ctx, "PS1", 0, g.class, nil, nil)
	if err == nil {
		t.Fatal("second export of PS1 should fail")
	}
	if !strings.Contains(err.Error(), "already exported") {
		t.Errorf("error %q should name the duplicate binding", err)
	}
}

func TestNetRMIPeerCrashMidWindow(t *testing.T) {
	// A window of pipelined calls is in flight when the peer dies: every
	// completion must arrive carrying an error — none may hang, none may
	// report success.
	g := startGate(t)
	obj := g.export(t, "PS1")
	done := g.ctx.NewChan(4)
	g.mw.InvokeAsync(g.ctx, obj, "Block", nil, false, done)
	g.mw.InvokeAsync(g.ctx, obj, "Echo", []any{[]int32{1}}, false, done)
	g.mw.InvokeAsync(g.ctx, obj, "Echo", []any{[]int32{2}}, false, done)
	<-g.started // the first call is provably dispatching at the node
	crashed := make(chan struct{})
	go func() {
		g.node.Abort()
		close(crashed)
	}()
	// Abort severs the connections before draining, so every completion
	// arrives with an error while the abandoned servant is still parked —
	// the client must not wait on a dead peer.
	for i := 0; i < 3; i++ {
		v, _ := done.Recv(g.ctx)
		if _, err := v.(*Completion).Reclaim(g.ctx); err == nil {
			t.Errorf("completion %d after peer crash reported success", i)
		}
	}
	close(g.release) // let the abandoned servant finish so Abort can drain
	<-crashed
	// The window is poisoned for good: later calls fail immediately.
	if _, err := g.mw.Invoke(g.ctx, obj, "Echo", nil, false); err == nil {
		t.Error("invoke after peer crash should fail")
	}
}

func TestNetRMIFlushAfterConnectionLoss(t *testing.T) {
	// One-way (void) traffic after the peer died: the failure must surface
	// through Join — the seam Stack.Join drains — not vanish.
	g := startGate(t)
	obj := g.export(t, "PS1")
	g.node.Abort()
	// The send itself may succeed (buffered write) or fail, depending on
	// how fast the OS notices; either way Join must report the loss.
	var errs []error
	if _, err := g.mw.Invoke(g.ctx, obj, "Echo", []any{[]int32{1}}, true); err != nil {
		errs = append(errs, err)
	}
	if err := g.mw.Join(g.ctx); err != nil {
		errs = append(errs, err)
	}
	if len(errs) == 0 {
		t.Error("void send + Join after connection loss reported no error")
	}
	if !g.mw.Quiet() {
		t.Error("middleware not quiet after failed Join drained the window")
	}
}

func TestNetRMIErrClosedThroughReclaim(t *testing.T) {
	// Client-side Close mid-window: the pending completion resolves with
	// rmi.ErrClosed and Completion.Reclaim propagates exactly that error.
	g := startGate(t)
	obj := g.export(t, "PS1")
	done := g.ctx.NewChan(2)
	g.mw.InvokeAsync(g.ctx, obj, "Block", nil, false, done)
	<-g.started
	if err := g.mw.Close(); err != nil {
		t.Fatal(err)
	}
	v, _ := done.Recv(g.ctx)
	if _, err := v.(*Completion).Reclaim(g.ctx); !errors.Is(err, rmi.ErrClosed) {
		t.Errorf("Reclaim after client Close = %v, want ErrClosed", err)
	}
	close(g.release)
	// Operations on the closed middleware fail fast with the same sentinel.
	if _, err := g.mw.ExportNew(g.ctx, "PS2", 0, g.class, nil, nil); !errors.Is(err, rmi.ErrClosed) {
		t.Errorf("ExportNew after Close = %v, want ErrClosed", err)
	}
}

func TestNetRMIWindowedCompletionsDeliverResults(t *testing.T) {
	// The healthy pipelined path: several windowed calls, completions carry
	// the results and reclaim is free (no cost model on the real backend).
	g := startGate(t)
	obj := g.export(t, "PS1")
	done := g.ctx.NewChan(4)
	const calls = 4
	for i := 0; i < calls; i++ {
		g.mw.InvokeAsync(g.ctx, obj, "Echo", []any{[]int32{int32(i)}}, false, done)
	}
	seen := make(map[int32]bool)
	received := make(chan any, calls)
	go func() {
		for i := 0; i < calls; i++ {
			v, _ := done.Recv(g.ctx)
			received <- v
		}
	}()
	deadline := time.After(5 * time.Second)
	for i := 0; i < calls; i++ {
		var v any
		select {
		case <-deadline:
			t.Fatal("windowed completions never arrived")
		case v = <-received:
		}
		res, err := v.(*Completion).Reclaim(g.ctx)
		if err != nil {
			t.Fatal(err)
		}
		seen[res[0].([]int32)[0]] = true
	}
	if len(seen) != calls {
		t.Errorf("got %d distinct results, want %d", len(seen), calls)
	}
}

// TestNetRMIInvokeParkedLeavesTheObjectLaneFree parks a call at an object
// and checks that the object's ordinary calls — on the default single lane,
// which the node dispatches inline — still go through, and that the parked
// call returns its result once the object lets it.
func TestNetRMIInvokeParkedLeavesTheObjectLaneFree(t *testing.T) {
	g := startGate(t)
	obj := g.export(t, "PS1")
	type out struct {
		res []any
		err error
	}
	parked := make(chan out, 1)
	go func() {
		res, err := g.mw.InvokeParked(obj, "Block")
		parked <- out{res, err}
	}()
	<-g.started // the call is parked inside the servant
	echoed := make(chan error, 1)
	go func() {
		_, err := g.mw.Invoke(g.ctx, obj, "Echo", []any{[]int32{1}}, false)
		echoed <- err
	}()
	select {
	case err := <-echoed:
		if err != nil {
			t.Fatalf("Echo beside a parked call: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("an ordinary call is stuck behind the parked one")
	}
	close(g.release)
	if o := <-parked; o.err != nil || o.res[0] != "unblocked" {
		t.Errorf("parked call = %v, %v", o.res, o.err)
	}
	if _, err := g.mw.InvokeParked(&NetRef{Name: "nobody"}, "Block"); err == nil {
		t.Error("InvokeParked on an unexported reference should fail")
	}
}

// TestOnePathConformance runs the same scenarios through NetRMI's one call
// path under the fail-fast policy and under an enabled fault policy — two
// rows of one table — and requires the same observable results: the policy
// decides what happens on a transport failure, never what a healthy call
// does. The last row is where the policies are meant to differ: the peer dies
// mid-window and fail-fast must fail everything, recover nothing, and say so.
func TestOnePathConformance(t *testing.T) {
	policies := []struct {
		name   string
		policy FaultPolicy
	}{
		{"policy-off", FaultPolicy{}},
		{"policy-on", FaultPolicy{Enabled: true, CheckpointEvery: 2,
			Reconnect: rmi.ReconnectPolicy{MaxAttempts: 2, BaseBackoff: 2 * time.Millisecond}}},
	}
	scenarios := []struct {
		name string
		run  func(t *testing.T, g *netGate)
	}{
		{"export", func(t *testing.T, g *netGate) {
			obj := g.export(t, "PS1")
			if _, ok := obj.(*NetRef); !ok {
				t.Fatalf("ExportNew returned %T, want *NetRef", obj)
			}
			if node, ok := g.mw.NodeOf(obj); !ok || node != 0 {
				t.Errorf("NodeOf = %v,%v, want 0,true", node, ok)
			}
			if _, err := g.mw.ExportNew(g.ctx, "PS1", 0, g.class, nil, nil); err == nil ||
				!strings.Contains(err.Error(), "already exported") {
				t.Errorf("second export of PS1 = %v, want the duplicate binding named", err)
			}
			if _, err := g.mw.Invoke(g.ctx, &NetRef{Name: "nobody"}, "Echo", nil, false); err == nil {
				t.Error("invoke on an unexported reference should fail")
			}
		}},
		{"sync-call", func(t *testing.T, g *netGate) {
			obj := g.export(t, "PS1")
			res, err := g.mw.Invoke(g.ctx, obj, "Echo", []any{[]int32{7, 11}}, false)
			if err != nil {
				t.Fatal(err)
			}
			if got := res[0].([]int32); len(got) != 2 || got[0] != 7 || got[1] != 11 {
				t.Errorf("Echo = %v", res)
			}
		}},
		{"windowed-call", func(t *testing.T, g *netGate) {
			obj := g.export(t, "PS1")
			const calls = 6
			done := g.ctx.NewChan(calls)
			for i := 0; i < calls; i++ {
				g.mw.InvokeAsync(g.ctx, obj, "Echo", []any{[]int32{int32(i)}}, false, done)
			}
			seen := make(map[int32]bool)
			for i := 0; i < calls; i++ {
				v, _ := done.Recv(g.ctx)
				res, err := v.(*Completion).Reclaim(g.ctx)
				if err != nil {
					t.Fatal(err)
				}
				seen[res[0].([]int32)[0]] = true
			}
			if len(seen) != calls {
				t.Errorf("got %d distinct results, want %d", len(seen), calls)
			}
		}},
		{"void-call-and-join", func(t *testing.T, g *netGate) {
			obj := g.export(t, "PS1")
			done := g.ctx.NewChan(1)
			for i := 0; i < 5; i++ {
				if _, err := g.mw.Invoke(g.ctx, obj, "Bump", nil, true); err != nil {
					t.Fatal(err)
				}
			}
			g.mw.InvokeAsync(g.ctx, obj, "Bump", nil, true, done)
			if v, _ := done.Recv(g.ctx); v.(*Completion).Err != nil {
				t.Errorf("void windowed call completed with %v, want completion at send", v.(*Completion).Err)
			}
			if err := g.mw.Join(g.ctx); err != nil {
				t.Fatalf("Join: %v", err)
			}
			if !g.mw.Quiet() {
				t.Error("not quiet after Join")
			}
			res, err := g.mw.Invoke(g.ctx, obj, "Count", nil, false)
			if err != nil || res[0].(int64) != 6 {
				t.Errorf("Count = %v, %v, want 6 (each one-way call applied exactly once)", res, err)
			}
		}},
		{"remote-error", func(t *testing.T, g *netGate) {
			obj := g.export(t, "PS1")
			var re *rmi.RemoteError
			if _, err := g.mw.Invoke(g.ctx, obj, "Boom", nil, false); !errors.As(err, &re) {
				t.Errorf("sync Boom = %v, want RemoteError", err)
			}
			done := g.ctx.NewChan(1)
			g.mw.InvokeAsync(g.ctx, obj, "Boom", nil, false, done)
			v, _ := done.Recv(g.ctx)
			if _, err := v.(*Completion).Reclaim(g.ctx); !errors.As(err, &re) {
				t.Errorf("windowed Boom = %v, want RemoteError", err)
			}
			if _, err := g.mw.Invoke(g.ctx, obj, "Boom", nil, true); err != nil {
				t.Errorf("void Boom failed at send: %v (its failure belongs to Join)", err)
			}
			if err := g.mw.Join(g.ctx); !errors.As(err, &re) {
				t.Errorf("Join after a void Boom = %v, want the RemoteError", err)
			}
			// A servant failure is an executed call, not a fault: the object
			// keeps serving.
			if _, err := g.mw.Invoke(g.ctx, obj, "Echo", []any{[]int32{1}}, false); err != nil {
				t.Errorf("Echo after remote errors: %v", err)
			}
		}},
		{"close-mid-window", func(t *testing.T, g *netGate) {
			obj := g.export(t, "PS1")
			done := g.ctx.NewChan(2)
			g.mw.InvokeAsync(g.ctx, obj, "Block", nil, false, done)
			<-g.started
			if err := g.mw.Close(); err != nil {
				t.Fatal(err)
			}
			v, _ := done.Recv(g.ctx)
			if _, err := v.(*Completion).Reclaim(g.ctx); !errors.Is(err, rmi.ErrClosed) {
				t.Errorf("Reclaim after Close = %v, want ErrClosed", err)
			}
			close(g.release)
			if _, err := g.mw.ExportNew(g.ctx, "PS2", 0, g.class, nil, nil); !errors.Is(err, rmi.ErrClosed) {
				t.Errorf("ExportNew after Close = %v, want ErrClosed", err)
			}
			if _, err := g.mw.Invoke(g.ctx, obj, "Echo", nil, false); err == nil {
				t.Error("invoke after Close should fail")
			}
		}},
	}
	for _, p := range policies {
		for _, sc := range scenarios {
			t.Run(p.name+"/"+sc.name, func(t *testing.T) {
				g := startGate(t, WithFaultPolicy(p.policy))
				sc.run(t, g)
				// No transport failed, so whatever the policy, nothing was
				// recovered — checkpoints aside, which are the enabled row's
				// healthy-path bookkeeping.
				st := g.mw.FaultStats()
				st.Checkpoints = 0
				if st != (FaultStats{}) {
					t.Errorf("healthy run left fault traces: %+v", st)
				}
			})
		}
	}

	// The fail-fast row: the peer is aborted with a window in flight — three
	// value-returning calls and a one-way call behind them.
	t.Run("policy-off/peer-aborted-mid-window", func(t *testing.T) {
		g := startGate(t)
		obj := g.export(t, "PS1")
		done := g.ctx.NewChan(4)
		g.mw.InvokeAsync(g.ctx, obj, "Block", nil, false, done)
		g.mw.InvokeAsync(g.ctx, obj, "Echo", []any{[]int32{1}}, false, done)
		g.mw.InvokeAsync(g.ctx, obj, "Echo", []any{[]int32{2}}, false, done)
		if _, err := g.mw.Invoke(g.ctx, obj, "Bump", nil, true); err != nil {
			t.Fatal(err)
		}
		<-g.started // the first call is provably dispatching at the node
		crashed := make(chan struct{})
		go func() {
			g.node.Abort()
			close(crashed)
		}()
		for i := 0; i < 3; i++ {
			v, _ := done.Recv(g.ctx)
			if _, err := v.(*Completion).Reclaim(g.ctx); err == nil {
				t.Errorf("completion %d after the abort reported success", i)
			}
		}
		close(g.release)
		<-crashed
		if err := g.mw.Join(g.ctx); err == nil {
			t.Error("Join did not report the lost one-way call")
		}
		if !g.mw.Quiet() {
			t.Error("not quiet after Join reported the loss")
		}
		// The peer is dropped for good: no reconnect, and later calls fail
		// at once.
		if _, err := g.mw.Invoke(g.ctx, obj, "Echo", nil, false); err == nil {
			t.Error("invoke after the peer was dropped should fail")
		}
		if st := g.mw.FaultStats(); st != (FaultStats{}) {
			t.Errorf("fail-fast attempted a recovery: %+v", st)
		}
	})
}
