package rmi

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"aspectpar/internal/exec"
)

// adderServant is a minimal class server: instances accumulate int64 values.
type adderServant struct{}

type adder struct {
	mu    sync.Mutex
	total int64
}

func (adderServant) New(ctx exec.Context, args []any) (any, error) {
	a := &adder{}
	if len(args) > 0 {
		a.total = args[0].(int64)
	}
	return a, nil
}

func (adderServant) Invoke(ctx exec.Context, obj any, method string, args []any) ([]any, error) {
	a := obj.(*adder)
	a.mu.Lock()
	defer a.mu.Unlock()
	switch method {
	case "Add":
		a.total += args[0].(int64)
		return nil, nil
	case "Get":
		return []any{a.total}, nil
	default:
		return nil, errors.New("no method " + method)
	}
}

func (adderServant) WireTypes() []any { return nil }

func startNode(t *testing.T) (string, *Node) {
	t.Helper()
	n := NewNode(exec.Real())
	n.Host("Adder", adderServant{})
	addr, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	t.Cleanup(n.Close)
	return addr, n
}

func TestNodeCreationProtocol(t *testing.T) {
	addr, _ := startNode(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctl, err := c.Lookup(ControlName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Invoke(CtlExportNew, "Adder", "PS1", int64(40)); err != nil {
		t.Fatalf("ExportNew: %v", err)
	}
	stub, err := c.Lookup("PS1")
	if err != nil {
		t.Fatalf("placed object not bound: %v", err)
	}
	if _, err := stub.Invoke("Add", int64(2)); err != nil {
		t.Fatal(err)
	}
	res, err := stub.Invoke("Get")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != 42 {
		t.Errorf("total = %v, want 42 (ctor arg + Add)", res[0])
	}
}

func TestNodeDoubleExportRejected(t *testing.T) {
	addr, _ := startNode(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctl, err := c.Lookup(ControlName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Invoke(CtlExportNew, "Adder", "PS1"); err != nil {
		t.Fatal(err)
	}
	_, err = ctl.Invoke(CtlExportNew, "Adder", "PS1")
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("second export of PS1 = %v, want RemoteError", err)
	}
	if !strings.Contains(re.Msg, "already exported") {
		t.Errorf("error %q should name the duplicate binding", re.Msg)
	}
	// The original binding survived the rejected duplicate.
	stub, err := c.Lookup("PS1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stub.Invoke("Add", int64(1)); err != nil {
		t.Errorf("original object broken after rejected duplicate: %v", err)
	}
}

func TestNodeUnknownClassAndVerb(t *testing.T) {
	addr, _ := startNode(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctl, _ := c.Lookup(ControlName)
	if _, err := ctl.Invoke(CtlExportNew, "NoSuchClass", "PS1"); err == nil {
		t.Error("export of unhosted class should fail")
	}
	if _, err := ctl.Invoke("Nonsense"); err == nil {
		t.Error("unknown control verb should fail")
	}
	if _, err := ctl.Invoke(CtlExportNew, "Adder", ControlName); err == nil {
		t.Error("export under the reserved control name should fail")
	}
}

func TestNodeReset(t *testing.T) {
	addr, _ := startNode(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctl, _ := c.Lookup(ControlName)
	if _, err := ctl.Invoke(CtlExportNew, "Adder", "PS1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Invoke(CtlReset); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup("PS1"); !errors.Is(err, errNotBound) {
		t.Errorf("PS1 after reset: %v, want errNotBound", err)
	}
	// The name is free again.
	if _, err := ctl.Invoke(CtlExportNew, "Adder", "PS1"); err != nil {
		t.Errorf("re-export after reset: %v", err)
	}
}

// gateServant hosts objects whose Wait method parks until the node shuts
// down; entered reports each park as it begins.
type gateServant struct{ entered chan struct{} }

type gate struct {
	entered chan struct{}
	done    <-chan struct{}
}

func (g *gate) ParkUntil(done <-chan struct{}) { g.done = done }

func (s gateServant) New(ctx exec.Context, args []any) (any, error) {
	return &gate{entered: s.entered}, nil
}

func (gateServant) Invoke(ctx exec.Context, obj any, method string, args []any) ([]any, error) {
	g := obj.(*gate)
	switch method {
	case "Wait":
		g.entered <- struct{}{}
		<-g.done
		return []any{int64(1)}, nil
	case "Ping":
		return []any{int64(2)}, nil
	default:
		return nil, errors.New("no method " + method)
	}
}

func (gateServant) WireTypes() []any { return nil }

// TestParkedCallHoldsNeitherStreamZeroNorClose parks a servant call on a
// stream of its own and checks the two things a parked call must not do:
// delay stream 0's inline dispatch on the same connection, and make the
// node's graceful Close wait out closeDrainGrace (30 s).
func TestParkedCallHoldsNeitherStreamZeroNorClose(t *testing.T) {
	entered := make(chan struct{}, 1)
	n := NewNode(exec.Real())
	n.Host("Gate", gateServant{entered})
	addr, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer n.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctl, err := c.Lookup(ControlName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Invoke(CtlExportNew, "Gate", "G1"); err != nil {
		t.Fatal(err)
	}
	stub, err := c.Lookup("G1")
	if err != nil {
		t.Fatal(err)
	}
	parked := stub.OnStream(7).InvokeAsync("Wait")
	<-entered

	// Stream 0 answers while the call is parked.
	pinged := make(chan error, 1)
	go func() {
		_, err := stub.Invoke("Ping")
		pinged <- err
	}()
	select {
	case err := <-pinged:
		if err != nil {
			t.Fatalf("Ping on stream 0: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream 0 is stuck behind the parked call")
	}

	start := time.Now()
	n.Close()
	if took := time.Since(start); took > time.Second {
		t.Errorf("Close with a parked call took %v", took)
	}
	// The graceful drain let the released call answer normally.
	if res, err := parked.Get(); err != nil || res[0].(int64) != 1 {
		t.Errorf("parked call after Close: %v, %v", res, err)
	}
}

// TestTopologyVersionsFollowTheHops pins what a topology version is scoped
// to: the stages it was installed for. Drivers number their installs from 1,
// so a version that outlived its hops would make every later driver's first
// install look stale (a second run on the same daemons forwarded nothing),
// and a node-wide version would let one tenant's count shadow another's.
func TestTopologyVersionsFollowTheHops(t *testing.T) {
	addr, n := startNode(t)
	for _, name := range []string{"a/s0", "a/s1", "b/s0", "b/s1"} {
		if err := n.exportNew("Adder", name, nil); err != nil {
			t.Fatal(err)
		}
	}
	install := func(version int64, prefix string) int64 {
		t.Helper()
		names := []string{prefix + "s0", prefix + "s1"}
		got, err := n.pipes.install(version, "Add", "next", names, []string{addr, addr})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := install(5, "a/"); got != 5 {
		t.Fatalf("tenant a's install at v5 reports v%d", got)
	}
	if got := install(4, "a/"); got != 5 {
		t.Errorf("a stale re-push (v4 after v5) reports v%d, want it ignored at v5", got)
	}
	if got := install(1, "b/"); got != 1 {
		t.Errorf("tenant b's first install reports v%d: tenant a's version shadowed it", got)
	}
	if a, b := n.pipes.poll("a/", false).Version, n.pipes.poll("b/", false).Version; a != 5 || b != 1 {
		t.Errorf("polled versions a=%d b=%d, want 5 and 1", a, b)
	}
	n.resetPrefix("a/")
	if got := n.pipes.poll("b/", false).Version; got != 1 {
		t.Errorf("resetting tenant a moved tenant b's version to %d", got)
	}
	n.reset()
	for _, name := range []string{"a/s0", "a/s1"} {
		if err := n.exportNew("Adder", name, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := install(1, "a/"); got != 1 {
		t.Errorf("after a whole-node reset a first install reports v%d: the old version survived", got)
	}
}
