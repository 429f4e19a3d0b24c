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
		func(args []any) (any, error) { return &struct{}{}, nil },
		map[string]MethodBody{
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
		}).Wire([]int32(nil))
}

func startGate(t *testing.T) *netGate {
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
	g.mw = NewNetRMI(NetAddressTable(addr))
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
