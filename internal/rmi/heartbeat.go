package rmi

import (
	"time"
)

// This file is the node side of the membership control plane (registry.go
// holds the registry side): a server configured with WithRegistry announces
// itself when it starts listening, beats on its clock seam while alive
// (WithHeartbeat), and deregisters on graceful shutdown. An aborted server
// sends nothing — silent death is exactly what the registry's missed-beat
// health check exists to catch.
//
// The loop waits on clock.After, never on the wall, so a virtual-clock
// server's beats are driven by the test's clock pump like every other
// scheduled event — heartbeat liveness becomes a deterministic function of
// advanced virtual time.

// defaultHeartbeatInterval is the beat interval used when WithRegistry is
// set but WithHeartbeat is not.
const defaultHeartbeatInterval = 200 * time.Millisecond

// heartbeatConfig is the membership configuration fixed at construction.
type heartbeatConfig struct {
	registry string        // registry address; "" disables membership
	interval time.Duration // beat interval; ≤0 selects the default
}

// registryGrace bounds, on the wall clock, what Listen and Close wait for the
// loop: a registry that accepts the connection and never answers holds a beat
// for as long as it likes, and must hold neither of them (the loop goes on
// without them and ends with its connection). A registry that answers at all
// answers in a fraction of it. A variable so tests can shorten it.
var registryGrace = time.Second

// startHeartbeat launches the registration/heartbeat loop once the server
// knows its bound address, and returns when the loop's first beat — the
// registration — has been answered or has failed (registry trouble is
// absorbed, as on every later beat): a caller that Listens and then asks the
// registry who is there finds this node. A registry that does not answer
// within registryGrace is trouble like any other. No-op without a registry
// configured.
func (s *Server) startHeartbeat(bound string) {
	if s.hb.registry == "" {
		return
	}
	interval := s.hb.interval
	if interval <= 0 {
		interval = defaultHeartbeatInterval
	}
	s.mu.Lock()
	if s.closed || s.hbStop != nil {
		s.mu.Unlock()
		return
	}
	s.hbStop = make(chan struct{})
	s.hbDone = make(chan struct{})
	stop, done := s.hbStop, s.hbDone
	s.mu.Unlock()
	registered := make(chan struct{})
	go s.heartbeatLoop(bound, interval, registered, stop, done)
	grace := time.NewTimer(registryGrace)
	defer grace.Stop()
	select {
	case <-registered:
	case <-stop:
	case <-grace.C:
	}
}

// stopHeartbeat ends the loop; graceful shutdowns deregister first. It
// waits for the loop to exit, so Close returning means the registry side
// was told (or could not be reached — best effort, never a hang: the loop's
// stop wake-up does not depend on the clock, and a beat stuck on a mute
// registry is waited for registryGrace at most).
func (s *Server) stopHeartbeat(graceful bool) {
	s.mu.Lock()
	stop, done := s.hbStop, s.hbDone
	s.hbStop = nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	if graceful {
		s.hbDeregister.Store(true)
	}
	close(stop)
	grace := time.NewTimer(registryGrace)
	defer grace.Stop()
	select {
	case <-done:
	case <-grace.C:
	}
}

// heartbeatLoop registers, beats every interval, and deregisters on a
// graceful stop. Registry trouble is absorbed: the connection is re-dialled
// on the next beat, and regHeartbeat upserts, so a restarted registry
// relearns the membership from the surviving nodes' beats.
func (s *Server) heartbeatLoop(addr string, interval time.Duration, registered chan<- struct{}, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	var cli *Client
	var reg *Stub
	defer func() {
		if cli != nil {
			cli.Close()
		}
	}()
	ensure := func() bool {
		if reg != nil {
			return true
		}
		c, err := Dial(s.hb.registry, WithClock(s.clk))
		if err != nil {
			return false
		}
		st, err := c.Lookup(RegistryName)
		if err != nil {
			c.Close()
			return false
		}
		cli, reg = c, st
		return true
	}
	beat := func(verb string) {
		if s.partitioned.Load() {
			// A partitioned node is cut off in both directions: its beats
			// do not cross the wire, so the registry sees it go unhealthy —
			// the flap/cordon schedule the chaos harness scripts.
			return
		}
		if !ensure() {
			return
		}
		if _, err := reg.Invoke(verb, addr, s.epoch.Load(), int64(interval)); err != nil {
			cli.Close()
			cli, reg = nil, nil
		}
	}
	beat(regRegister)
	close(registered)
	for {
		select {
		case <-stop:
			if s.hbDeregister.Load() && !s.partitioned.Load() && ensure() {
				reg.Invoke(regDeregister, addr)
			}
			return
		case <-s.clk.After(interval):
			beat(regHeartbeat)
		}
	}
}
