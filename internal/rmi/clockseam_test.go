package rmi

import (
	"errors"
	"testing"
	"time"

	"aspectpar/internal/clock"
)

// TestReconnectBackoffCancelledByClose is the regression test for the
// uninterruptible-backoff bug: Reconnect used to park in time.Sleep between
// dial attempts, so a Close racing a recovery loop waited out the whole
// backoff schedule. The backoff now rides a stoppable clock timer raced
// against the close signal: on a virtual clock nobody advances, the parked
// Reconnect can only return because Close unparked it.
func TestReconnectBackoffCancelledByClose(t *testing.T) {
	srv, addr, _ := startCounter(t)
	v := clock.NewVirtual(time.Unix(0, 0))
	defer v.Close()
	c := dialSession(t, addr, "cli-cancel", WithClock(v),
		WithReconnect(ReconnectPolicy{MaxAttempts: 5, BaseBackoff: time.Hour, MaxBackoff: time.Hour}))
	srv.abort() // every re-dial is refused: Reconnect enters its backoff

	done := make(chan error, 1)
	go func() {
		_, err := c.Reconnect()
		done <- err
	}()
	v.AwaitWaits(1) // Reconnect is provably parked in its first backoff
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Reconnect interrupted by Close returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Reconnect still parked in its backoff after Close: the wait is not cancellable")
	}
}

// TestEpochMixesRandomBits pins the cross-host collision fix: two server
// incarnations minting an epoch from an identical clock+counter base (same
// nanosecond on different hosts, where the process-local counter cannot
// disambiguate) must still diverge, and the reserved zero value must never
// be minted.
func TestEpochMixesRandomBits(t *testing.T) {
	const base = int64(1_000_000_007)
	seen := make(map[int64]bool)
	for i := 0; i < 64; i++ {
		id := MixIdentity(base)
		if id == 0 {
			t.Fatal("MixIdentity minted the reserved zero epoch")
		}
		if seen[id] {
			t.Fatalf("identical bases minted the same identity %d twice", id)
		}
		seen[id] = true
	}
	// Epochs minted on a frozen clock (every Now identical) stay distinct too.
	v := clock.NewVirtual(time.Unix(42, 0))
	defer v.Close()
	if a, b := newEpoch(v), newEpoch(v); a == b || a == 0 || b == 0 {
		t.Fatalf("frozen-clock epochs %d, %d must be distinct and non-zero", a, b)
	}
}

// TestWatchRequests pins the event-driven kill trigger: the channel closes
// exactly when the request count reaches the watermark — no polling — and a
// watch armed after the fact closes immediately.
func TestWatchRequests(t *testing.T) {
	srv, addr, _ := startCounter(t)
	c := dialSession(t, addr, "cli-watch")
	stub, err := c.Lookup("counter")
	if err != nil {
		t.Fatal(err)
	}
	base := srv.requests.Load()
	hit := srv.watchRequests(base + 2)
	if _, err := stub.Invoke("Get"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-hit:
		t.Fatal("watch fired one request early")
	default:
	}
	if _, err := stub.Invoke("Get"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-hit:
	case <-time.After(5 * time.Second):
		t.Fatal("watch never fired at its watermark")
	}
	select {
	case <-srv.watchRequests(base): // already passed: must close immediately
	default:
		t.Fatal("watch for an already-passed watermark did not close immediately")
	}
}

// TestPartitionedServer pins the partition model: while partitioned, dials
// still succeed at the TCP level but no session forms (the handshake fails),
// and existing connections are severed; healing restores full service with
// the same session epoch — a partition cuts links, not processes.
func TestPartitionedServer(t *testing.T) {
	srv, addr, _ := startCounter(t)
	c := dialSession(t, addr, "cli-part")
	epoch := c.Epoch()
	srv.setPartitioned(true)

	if c2, err := Dial(addr); err == nil {
		// The dial got through (host reachable); the session must not form.
		defer c2.Close()
		if _, err := c2.Handshake(); err == nil {
			t.Fatal("handshake succeeded across a partition")
		}
	}
	stub, err := c.Lookup("counter")
	if err == nil {
		if _, err = stub.Invoke("Get"); err == nil {
			t.Fatal("invoke on a severed connection succeeded")
		}
	}

	srv.setPartitioned(false)
	same, err := c.Reconnect()
	if err != nil {
		t.Fatalf("reconnect after healing: %v", err)
	}
	if !same || c.Epoch() != epoch {
		t.Fatalf("healing changed the session epoch: same=%v, epoch %d -> %d", same, epoch, c.Epoch())
	}
	if stub, err = c.Lookup("counter"); err != nil {
		t.Fatal(err)
	}
	if _, err := stub.Invoke("Get"); err != nil {
		t.Fatalf("invoke after healing: %v", err)
	}
}

// TestDispatchDelayVirtual pins the slow-link injection on the clock seam: a
// huge virtual delay costs only the pump's settle in wall time, and the
// service stamp reflects virtual time, not wall time.
func TestDispatchDelayVirtual(t *testing.T) {
	v := clock.NewVirtual(time.Unix(0, 0))
	defer v.Close()
	v.AutoAdvance(100 * time.Microsecond)
	s := NewServer(WithClock(v))
	s.Export("echo", func(method string, args []any) ([]any, error) { return args, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	t.Cleanup(s.Close)
	s.setDispatchDelay(3 * time.Hour) // virtual hours: free under the pump

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	stub, err := c.Lookup("echo")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := stub.Invoke("M", int64(7)); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 30*time.Second {
		t.Fatalf("virtual 3h delay cost %v of wall time", wall)
	}
	s.setDispatchDelay(0)
	if _, err := stub.Invoke("M", int64(8)); err != nil {
		t.Fatal(err)
	}
}
