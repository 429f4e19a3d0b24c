package rmi

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// startCounter hosts a servant with observable state: Add mutates a total,
// Get reads it, Fail errors — the fixture the session-layer semantics
// (dedupe, replay, epoch rejection) are asserted against.
func startCounter(t *testing.T) (*Server, string, *atomic.Int64) {
	t.Helper()
	s := NewServer()
	var total atomic.Int64
	s.Export("counter", func(method string, args []any) ([]any, error) {
		switch method {
		case "Add":
			total.Add(args[0].(int64))
			return nil, nil
		case "Get":
			return []any{total.Load()}, nil
		case "Fail":
			return nil, errors.New("servant failure")
		}
		return nil, errors.New("no method " + method)
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	t.Cleanup(s.Close)
	return s, addr, &total
}

func dialSession(t *testing.T, addr, id string, opts ...Option) *Client {
	t.Helper()
	opts = append([]Option{WithSession(id),
		WithReconnect(ReconnectPolicy{MaxAttempts: 10, BaseBackoff: 2 * time.Millisecond})}, opts...)
	c, err := Dial(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.Handshake(); err != nil {
		t.Fatal(err)
	}
	return c
}

func invokeSeq(t *testing.T, stub *Stub, method string, seq uint64, args ...any) ([]any, error) {
	t.Helper()
	type out struct {
		res []any
		err error
	}
	ch := make(chan out, 1)
	stub.InvokeSeq(method, seq, SinkFunc(func(res []any, err error) { ch <- out{res, err} }), args...)
	o := <-ch
	return o.res, o.err
}

func TestHandshakeReportsServerEpoch(t *testing.T) {
	srv, addr, _ := startCounter(t)
	c := dialSession(t, addr, "cli-1")
	if c.Epoch() == 0 || c.Epoch() != srv.Epoch() {
		t.Errorf("client epoch %d, server epoch %d", c.Epoch(), srv.Epoch())
	}
}

func TestDedupeAppliesAtMostOnce(t *testing.T) {
	_, addr, total := startCounter(t)
	c := dialSession(t, addr, "cli-1")
	stub, err := c.Lookup("counter")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := invokeSeq(t, stub, "Add", 1, int64(5)); err != nil {
		t.Fatal(err)
	}
	// A replay of the same sequence number must not apply again...
	if _, err := invokeSeq(t, stub, "Add", 1, int64(5)); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if got := total.Load(); got != 5 {
		t.Errorf("total = %d after replayed Add(5), want 5 (applied twice?)", got)
	}
	// ...and a cached response is replayed verbatim.
	res, err := invokeSeq(t, stub, "Get", 2)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := invokeSeq(t, stub, "Get", 2)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != replayed[0].(int64) {
		t.Errorf("cached replay diverged: %v vs %v", res, replayed)
	}
}

func TestStaleSessionRejectedAfterEpochRotation(t *testing.T) {
	srv, addr, total := startCounter(t)
	c := dialSession(t, addr, "cli-1")
	stub, err := c.Lookup("counter")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := invokeSeq(t, stub, "Add", 1, int64(1)); err != nil {
		t.Fatal(err)
	}
	srv.RotateEpoch() // a reset: pre-rotation sessions are invalid
	if _, err := invokeSeq(t, stub, "Add", 2, int64(1)); !errors.Is(err, ErrStaleSession) {
		t.Fatalf("tracked call after rotation = %v, want ErrStaleSession", err)
	}
	if got := total.Load(); got != 1 {
		t.Errorf("stale call was applied: total %d", got)
	}
	// Untracked traffic is unaffected by the session guard.
	if _, err := stub.Invoke("Add", int64(1)); err != nil {
		t.Errorf("untracked call after rotation failed: %v", err)
	}
	// Re-handshaking picks up the fresh epoch and tracked calls work again.
	if _, err := c.Handshake(); err != nil {
		t.Fatal(err)
	}
	if _, err := invokeSeq(t, stub, "Add", 3, int64(1)); err != nil {
		t.Errorf("tracked call after re-handshake: %v", err)
	}
}

func TestReconnectSameEpochAfterDroppedConns(t *testing.T) {
	srv, addr, total := startCounter(t)
	c := dialSession(t, addr, "cli-1")
	stub, err := c.Lookup("counter")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := invokeSeq(t, stub, "Add", 1, int64(2)); err != nil {
		t.Fatal(err)
	}
	srv.DropConns() // transport blip: server state survives
	// Wait until the client observed the loss (the reader fails the client).
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := stub.Invoke("Get"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never observed the dropped connection")
		}
		time.Sleep(time.Millisecond)
	}
	same, err := c.Reconnect()
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Error("Reconnect into the surviving server reported a new epoch")
	}
	// The same client and stub work again; dedupe state survived with the
	// session: replaying seq 1 does not re-apply.
	if _, err := invokeSeq(t, stub, "Add", 1, int64(2)); err != nil {
		t.Fatal(err)
	}
	if got := total.Load(); got != 2 {
		t.Errorf("total = %d, want 2 (replay after reconnect re-applied)", got)
	}
	if _, err := invokeSeq(t, stub, "Add", 2, int64(3)); err != nil {
		t.Fatal(err)
	}
	if got := total.Load(); got != 5 {
		t.Errorf("total = %d, want 5", got)
	}
}

func TestReconnectDetectsRestartedServer(t *testing.T) {
	srv, addr, _ := startCounter(t)
	c := dialSession(t, addr, "cli-1")
	srv.Close()
	// A fresh server on the same address: a restarted daemon, new epoch.
	s2 := NewServer()
	s2.Export("counter", func(method string, args []any) ([]any, error) { return nil, nil })
	if _, err := s2.Listen(addr); err != nil {
		t.Skipf("rebind %s: %v", addr, err)
	}
	t.Cleanup(s2.Close)
	same, err := c.Reconnect()
	if err != nil {
		t.Fatal(err)
	}
	if same {
		t.Error("Reconnect reported the same epoch across a server restart")
	}
	if c.Epoch() != s2.Epoch() {
		t.Errorf("client epoch %d, restarted server epoch %d", c.Epoch(), s2.Epoch())
	}
}

func TestReconnectRefusesClosedClient(t *testing.T) {
	_, addr, _ := startCounter(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Reconnect(); !errors.Is(err, ErrClosed) {
		t.Errorf("Reconnect after Close = %v, want ErrClosed", err)
	}
}

func TestSendSeqAcksPerCall(t *testing.T) {
	_, addr, total := startCounter(t)
	c := dialSession(t, addr, "cli-1")
	stub, err := c.Lookup("counter")
	if err != nil {
		t.Fatal(err)
	}
	acks := make(chan error, 2)
	ack := SinkFunc(func(_ []any, err error) { acks <- err })
	stub.SendSeq("Add", 1, ack, int64(7))
	stub.SendSeq("Fail", 2, ack)
	if err := <-acks; err != nil {
		t.Errorf("Add ack = %v, want nil", err)
	}
	var re *RemoteError
	if err := <-acks; !errors.As(err, &re) {
		t.Errorf("Fail ack = %v, want RemoteError", err)
	}
	// Per-call delivery owns the failures: Flush has nothing left to report.
	if err := c.Flush(); err != nil {
		t.Errorf("Flush = %v, want nil (SendSeq errors are per-call)", err)
	}
	if got := total.Load(); got != 7 {
		t.Errorf("total = %d, want 7", got)
	}
}

func TestNodeResetRotatesEpoch(t *testing.T) {
	// The CtlReset ↔ reconnect race guard: a node's reset rotates its
	// session epoch, so replays of pre-reset sessions are rejected.
	node := NewNode(nil)
	addr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	t.Cleanup(node.Close)
	before := node.Epoch()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctl, err := c.Lookup(ControlName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Invoke(CtlReset); err != nil {
		t.Fatal(err)
	}
	if node.Epoch() == before {
		t.Error("CtlReset did not rotate the node's session epoch")
	}
}
