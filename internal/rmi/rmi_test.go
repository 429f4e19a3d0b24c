package rmi

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"aspectpar/internal/future"
)

// startServer exports a counter object and returns the address plus a
// cleanup hook.
func startServer(t *testing.T) (addr string, s *Server) {
	t.Helper()
	s = NewServer()
	var mu sync.Mutex
	total := int64(0)
	s.Export("counter", func(method string, args []any) ([]any, error) {
		mu.Lock()
		defer mu.Unlock()
		switch method {
		case "Add":
			total += args[0].(int64)
			return nil, nil
		case "Get":
			return []any{total}, nil
		case "Fail":
			return nil, fmt.Errorf("server-side failure")
		default:
			return nil, fmt.Errorf("no method %s", method)
		}
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	t.Cleanup(s.Close)
	return addr, s
}

func TestLookupAndInvoke(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stub, err := c.Lookup("counter")
	if err != nil {
		t.Fatal(err)
	}
	if stub.name != "counter" {
		t.Errorf("Name = %q", stub.name)
	}
	if _, err := stub.Invoke("Add", int64(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := stub.Invoke("Add", int64(7)); err != nil {
		t.Fatal(err)
	}
	res, err := stub.Invoke("Get")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != 12 {
		t.Errorf("Get = %v", res[0])
	}
}

func TestLookupUnbound(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Lookup("missing"); !errors.Is(err, errNotBound) {
		t.Errorf("err = %v", err)
	}
}

func TestRemoteErrorPropagates(t *testing.T) {
	addr, _ := startServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	stub, _ := c.Lookup("counter")
	_, err := stub.Invoke("Fail")
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if re.Msg != "server-side failure" {
		t.Errorf("Msg = %q", re.Msg)
	}
}

func TestSlicePayloads(t *testing.T) {
	s := NewServer()
	s.Export("echo", func(method string, args []any) ([]any, error) {
		return args, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer s.Close()
	c, _ := Dial(addr)
	defer c.Close()
	stub, _ := c.Lookup("echo")
	payload := []int32{2, 3, 5, 7}
	res, err := stub.Invoke("Echo", payload, "tag")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res[0]) != "[2 3 5 7]" || res[1] != "tag" {
		t.Errorf("res = %v", res)
	}
}

func TestConcurrentClients(t *testing.T) {
	addr, _ := startServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			stub, err := c.Lookup("counter")
			if err != nil {
				t.Errorf("lookup: %v", err)
				return
			}
			for i := 0; i < 25; i++ {
				if _, err := stub.Invoke("Add", int64(1)); err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c, _ := Dial(addr)
	defer c.Close()
	stub, _ := c.Lookup("counter")
	res, err := stub.Invoke("Get")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != 100 {
		t.Errorf("total = %v, want 100", res[0])
	}
}

// TestUnexportAndNames probes the bound names the way a client sees them:
// Lookup finds an exported name and fails with errNotBound once it is gone.
func TestUnexportAndNames(t *testing.T) {
	s := NewServer()
	s.Export("a", func(string, []any) ([]any, error) { return nil, nil })
	s.Export("b", func(string, []any) ([]any, error) { return nil, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, name := range []string{"a", "b"} {
		if _, err := c.Lookup(name); err != nil {
			t.Errorf("Lookup(%s) = %v, want bound", name, err)
		}
	}
	if !s.unexport("a") {
		t.Error("unexport(a) should report true")
	}
	if s.unexport("a") {
		t.Error("second unexport(a) should report false")
	}
	if _, err := c.Lookup("a"); !errors.Is(err, errNotBound) {
		t.Errorf("Lookup(a) after unexport = %v, want errNotBound", err)
	}
	if _, err := c.Lookup("b"); err != nil {
		t.Errorf("Lookup(b) after unexport(a) = %v, want bound", err)
	}
}

func TestInvokeEmptyMethod(t *testing.T) {
	addr, _ := startServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	stub, _ := c.Lookup("counter")
	if _, err := stub.Invoke(""); err == nil {
		t.Error("empty method should fail client-side")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Skip("port 1 unexpectedly open")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	_, s := startServer(t)
	s.Close()
	s.Close()
}

func TestInvokeAsyncPipelines(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stub, err := c.Lookup("counter")
	if err != nil {
		t.Fatal(err)
	}
	// Issue a window of invocations before touching any result; the futures
	// must all resolve, in order, with the accumulated totals.
	futs := make([]*future.Future[[]any], 0, 8)
	for i := 0; i < 8; i++ {
		futs = append(futs, stub.InvokeAsync("Add", int64(1)))
	}
	for i, f := range futs {
		if _, err := f.Get(); err != nil {
			t.Fatalf("async call %d: %v", i, err)
		}
	}
	res, err := stub.Invoke("Get")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != 8 {
		t.Errorf("total = %v, want 8", res[0])
	}
}

func TestInvokeAsyncRemoteError(t *testing.T) {
	addr, _ := startServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	stub, _ := c.Lookup("counter")
	ok := stub.InvokeAsync("Add", int64(3))
	bad := stub.InvokeAsync("Fail")
	if _, err := ok.Get(); err != nil {
		t.Fatalf("good call failed: %v", err)
	}
	var re *RemoteError
	if _, err := bad.Get(); !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
}

func TestSendWindowAndFlush(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	withWindow(c, 4)
	stub, err := c.Lookup("counter")
	if err != nil {
		t.Fatal(err)
	}
	// Far more sends than the window: the acks must clock the window open.
	for i := 0; i < 100; i++ {
		if err := stub.Send("Add", int64(1)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := stub.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	res, err := stub.Invoke("Get")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != 100 {
		t.Errorf("total = %v, want 100 (one-way sends lost)", res[0])
	}
}

func TestSendRemoteErrorsSurfaceInFlush(t *testing.T) {
	addr, _ := startServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	stub, _ := c.Lookup("counter")
	if err := stub.Send("Fail"); err != nil {
		t.Fatalf("send itself should succeed: %v", err)
	}
	if err := stub.Send("Add", int64(2)); err != nil {
		t.Fatal(err)
	}
	err := stub.Flush()
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("Flush = %v, want the Fail send's RemoteError", err)
	}
	// The errors were drained: a second Flush is clean.
	if err := stub.Flush(); err != nil {
		t.Errorf("second Flush = %v, want nil", err)
	}
}

func TestServantPanicRecovered(t *testing.T) {
	s := NewServer()
	s.Export("bomb", func(method string, args []any) ([]any, error) {
		if method == "Boom" {
			panic("servant bug")
		}
		return []any{"ok"}, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer s.Close()
	c, _ := Dial(addr)
	defer c.Close()
	stub, err := c.Lookup("bomb")
	if err != nil {
		t.Fatal(err)
	}
	var re *RemoteError
	if _, err := stub.Invoke("Boom"); !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError carrying the panic", err)
	}
	// The connection survived the panic: the next call still works.
	res, err := stub.Invoke("Ping")
	if err != nil {
		t.Fatalf("connection died after recovered panic: %v", err)
	}
	if res[0] != "ok" {
		t.Errorf("res = %v", res)
	}
	// One-way sends recover the same way, surfacing through Flush.
	if err := stub.Send("Boom"); err != nil {
		t.Fatal(err)
	}
	if err := stub.Flush(); !errors.As(err, &re) {
		t.Errorf("Flush = %v, want RemoteError", err)
	}
}

func TestCloseDrainsInFlightCall(t *testing.T) {
	// Server.Close while a servant call is executing: the shutdown must wait
	// for the call and deliver its real response — not tear the connection
	// down under the half-finished dispatch and surface a spurious error.
	s := NewServer()
	started := make(chan struct{})
	release := make(chan struct{})
	s.Export("slow", func(method string, args []any) ([]any, error) {
		close(started)
		<-release
		return []any{"done"}, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stub, err := c.Lookup("slow")
	if err != nil {
		t.Fatal(err)
	}
	f := stub.InvokeAsync("Work")
	<-started
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a call was still dispatching")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	res, err := f.Get()
	if err != nil {
		t.Fatalf("in-flight call across Close failed: %v", err)
	}
	if res[0] != "done" {
		t.Errorf("res = %v, want the servant's real result", res)
	}
	<-closed
}

func TestAbortAbandonsInFlightCall(t *testing.T) {
	// Abort is the crash twin of Close: the in-flight call's client must
	// observe a transport failure, not hang.
	s := NewServer()
	started := make(chan struct{})
	release := make(chan struct{})
	s.Export("slow", func(method string, args []any) ([]any, error) {
		close(started)
		<-release
		return []any{"done"}, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stub, err := c.Lookup("slow")
	if err != nil {
		t.Fatal(err)
	}
	f := stub.InvokeAsync("Work")
	<-started
	aborted := make(chan struct{})
	go func() {
		s.abort()
		close(aborted)
	}()
	// The client sees the connection die without waiting for the servant.
	if _, err := f.Get(); err == nil {
		t.Error("call across Abort should fail with a transport error")
	}
	close(release) // let the abandoned servant finish so Abort's drain completes
	<-aborted
}

func TestCloseMidWindowResolvesPending(t *testing.T) {
	// A server that accepts but never answers: every pipelined call stays in
	// flight until the client is closed, which must resolve them with
	// ErrClosed instead of leaving callers blocked.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(io.Discard, conn) // swallow requests, never reply
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	withWindow(c, 2)
	stub := &Stub{client: c, name: "void"}
	f := stub.InvokeAsync("Work")
	if _, _, ok := f.TryGet(); ok {
		t.Fatal("future resolved before any response")
	}
	// A full window of one-way sends, then one more on another goroutine:
	// it blocks on flow control until Close unblocks it with an error.
	for i := 0; i < 2; i++ {
		if err := stub.Send("Work"); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() { blocked <- stub.Send("Work") }()
	select {
	case err := <-blocked:
		t.Fatalf("send over a full window returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	c.Close()
	if _, err := f.Get(); !errors.Is(err, ErrClosed) {
		t.Errorf("pending invoke resolved with %v, want ErrClosed", err)
	}
	if err := <-blocked; !errors.Is(err, ErrClosed) {
		t.Errorf("blocked send returned %v, want ErrClosed", err)
	}
	if err := c.flush(); !errors.Is(err, ErrClosed) {
		t.Errorf("Flush = %v, want ErrClosed", err)
	}
}
