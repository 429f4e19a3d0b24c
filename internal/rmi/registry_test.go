package rmi

import (
	"io"
	"net"
	"testing"
	"time"

	"aspectpar/internal/clock"
)

func memberOf(ms []Member, addr string) (Member, bool) {
	for _, m := range ms {
		if m.Addr == addr {
			return m, true
		}
	}
	return Member{}, false
}

// TestRegistryHeartbeatLifecycle drives the whole membership loop over real
// TCP under a virtual clock: a server started with WithRegistry registers on
// Listen and beats on the clock seam; a partition silences the beats and the
// registry reads the node unhealthy after the miss window — without a single
// wall-clock sleep in the health math; healing restores health on the next
// beat; graceful Close deregisters.
func TestRegistryHeartbeatLifecycle(t *testing.T) {
	v := clock.NewVirtual(time.Unix(0, 0))
	defer v.Close()
	v.AutoAdvance(200 * time.Microsecond)

	reg := NewRegistry(v, 0)
	regSrv := NewServer(WithClock(v))
	reg.Bind(regSrv)
	regAddr, err := regSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	t.Cleanup(regSrv.Close)

	const beat = 50 * time.Millisecond
	node := NewServer(WithClock(v), WithRegistry(regAddr), WithHeartbeat(beat))
	addr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	t.Cleanup(func() {
		if !closed {
			node.Close()
		}
	})

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(time.Millisecond)
		}
	}

	waitFor("registration with the first beat", func() bool {
		m, ok := memberOf(reg.Members(), addr)
		return ok && m.Healthy && m.Epoch == node.epoch.Load() && m.Interval == beat
	})

	// A partition silences the beats; virtual time keeps flowing under the
	// pump, so the registry crosses the miss window and flips the member
	// unhealthy — silent death detected with zero registry-side activity.
	node.setPartitioned(true)
	waitFor("missed-beat detection", func() bool {
		m, ok := memberOf(reg.Members(), addr)
		return ok && !m.Healthy
	})

	// Healing resumes the beats (the loop re-dials after beat failures) and
	// the very next one restores health.
	node.setPartitioned(false)
	waitFor("health restored after healing", func() bool {
		m, ok := memberOf(reg.Members(), addr)
		return ok && m.Healthy
	})

	// Graceful shutdown deregisters — the record vanishes instead of rotting
	// into an unhealthy tombstone.
	node.Close()
	closed = true
	waitFor("deregistration on graceful close", func() bool {
		_, ok := memberOf(reg.Members(), addr)
		return !ok
	})
}

// TestRegistryAbortLeavesTombstone pins the other half of departure: a crash
// (Abort, no deregistration) leaves the record in place and missed beats —
// not the broken connection — mark it unhealthy.
func TestRegistryAbortLeavesTombstone(t *testing.T) {
	v := clock.NewVirtual(time.Unix(0, 0))
	defer v.Close()
	v.AutoAdvance(200 * time.Microsecond)

	reg := NewRegistry(v, 0)
	regSrv := NewServer(WithClock(v))
	reg.Bind(regSrv)
	regAddr, err := regSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	t.Cleanup(regSrv.Close)

	const beat = 20 * time.Millisecond
	node := NewServer(WithClock(v), WithRegistry(regAddr), WithHeartbeat(beat))
	addr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if m, ok := memberOf(reg.Members(), addr); ok && m.Healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node never registered")
		}
		time.Sleep(time.Millisecond)
	}

	node.abort() // crash: no deregistration happens
	for {
		m, ok := memberOf(reg.Members(), addr)
		if !ok {
			t.Fatal("a crashed node must stay registered (health flags it, not absence)")
		}
		if !m.Healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("crashed node never read unhealthy")
		}
		// The dead node parks nothing on the clock, so the auto-advance pump has
		// nothing to run ahead of — push virtual time past the miss window
		// by hand.
		v.Advance(beat)
		time.Sleep(time.Millisecond)
	}
}

// TestRegistryServantSemantics exercises the servant directly (no wire):
// lazy health on the virtual clock, heartbeat upsert after a registry
// restart, zero-interval trust, deregistration, and namespace uniqueness.
func TestRegistryServantSemantics(t *testing.T) {
	v := clock.NewVirtual(time.Unix(0, 0))
	defer v.Close()
	reg := NewRegistry(v, 2)

	const ival = 10 * time.Millisecond
	reg.register("10.0.0.1:9", 7, ival)
	reg.register("10.0.0.2:9", 8, 0) // no heartbeats: trusted until deregister

	if m, _ := memberOf(reg.Members(), "10.0.0.1:9"); !m.Healthy {
		t.Fatal("fresh registration must read healthy")
	}
	v.Advance(2*ival + time.Millisecond) // past the miss window (factor 2)
	if m, _ := memberOf(reg.Members(), "10.0.0.1:9"); m.Healthy {
		t.Fatal("member past its miss window must read unhealthy")
	}
	if m, _ := memberOf(reg.Members(), "10.0.0.2:9"); !m.Healthy {
		t.Fatal("a zero-interval member never expires")
	}
	reg.heartbeat("10.0.0.1:9", 7, ival)
	if m, _ := memberOf(reg.Members(), "10.0.0.1:9"); !m.Healthy {
		t.Fatal("a beat must restore health")
	}

	// A restarted registry starts empty; the next beat of a live node
	// upserts it — nodes outlive registry restarts.
	fresh := NewRegistry(v, 2)
	if n := len(fresh.Members()); n != 0 {
		t.Fatalf("fresh registry has %d members, want 0", n)
	}
	fresh.heartbeat("10.0.0.1:9", 9, ival)
	m, ok := memberOf(fresh.Members(), "10.0.0.1:9")
	if !ok || !m.Healthy || m.Epoch != 9 {
		t.Fatalf("heartbeat upsert after restart got %+v, ok=%v", m, ok)
	}
	fresh.deregister("10.0.0.1:9")
	if len(fresh.Members()) != 0 {
		t.Fatal("deregistration must remove the record")
	}

	if a, b := reg.namespace(), reg.namespace(); a == b || a == "" {
		t.Fatalf("namespaces must be unique and non-empty: %q, %q", a, b)
	}
}

// TestMuteRegistryHoldsNeitherListenNorClose: a registry address that accepts
// the connection and never answers (the first beat blocks in its Hello for as
// long as the peer likes) costs Listen and Close registryGrace each, not for
// ever, and the node serves in between.
func TestMuteRegistryHoldsNeitherListenNorClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer ln.Close() // ends the swallowed connection's loop with it
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			go io.Copy(io.Discard, conn) // swallow beats, never reply
		}
	}()
	defer func(d time.Duration) { registryGrace = d }(registryGrace)
	registryGrace = 50 * time.Millisecond

	returned := make(chan struct{})
	go func() {
		defer close(returned)
		node := NewServer(WithRegistry(ln.Addr().String()))
		addr, err := node.Listen("127.0.0.1:0")
		if err != nil {
			t.Error(err)
			return
		}
		if c, err := Dial(addr); err != nil {
			t.Errorf("the node does not serve while its registry is mute: %v", err)
		} else {
			c.Close()
		}
		node.Close()
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("Listen or Close is still waiting for a registry that never answers")
	}
}
