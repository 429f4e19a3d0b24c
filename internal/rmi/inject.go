package rmi

import "time"

// This file is the server's fault-injection surface: the hooks the chaos
// harness drives to provoke, deterministically and without wall-clock
// polling, the failure modes a real deployment meets by accident — a
// partitioned peer, a slow or asymmetric link, "kill after the N-th
// request". They are cheap to the point of invisibility when unused: one
// atomic load on the paths they gate.

// SetPartitioned simulates a network partition around this server. While
// set, newly accepted connections are closed before a session can form —
// clients observe a dial that succeeds (the host is reachable at the TCP
// level) followed by a failed first exchange (a session's handshake, or the
// first call), which is how a half-dead peer looks
// in practice — and the existing connections are dropped. Clearing it heals
// the partition; server state (registry, sessions, epoch) is untouched
// throughout, as a partition severs links, not processes.
func (s *Server) SetPartitioned(partitioned bool) {
	s.partitioned.Store(partitioned)
	if partitioned {
		s.DropConns()
	}
}

// SetDispatchDelay injects d of latency (on the server's clock) before every
// request dispatch — a slow link or overloaded peer. Asymmetric topologies
// fall out of setting different delays on different nodes. Zero removes the
// delay.
func (s *Server) SetDispatchDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.dispatchDelay.Store(int64(d))
}

// requestWatch is one armed "wake me at the n-th request" trigger.
type requestWatch struct {
	n  int64
	ch chan struct{}
}

// WatchRequests returns a channel that is closed once the server has handled
// at least n requests since start — the chaos harness's "kill the node after
// its N-th request" trigger, replacing the poll-every-200µs loop that made
// crash points load-dependent. If the count has already passed n, the
// returned channel is closed immediately.
func (s *Server) WatchRequests(n int64) <-chan struct{} {
	ch := make(chan struct{})
	s.mu.Lock()
	// Registering under mu and re-checking the counter inside closes the
	// window against a concurrent handle() that passed the hasWatches gate
	// before this watch existed.
	if s.requests.Load() >= n {
		close(ch)
	} else {
		s.watches = append(s.watches, requestWatch{n: n, ch: ch})
		s.hasWatches.Store(true)
	}
	s.mu.Unlock()
	return ch
}

// notifyRequestWatches fires every watch satisfied by the running request
// count. Called from handle behind the hasWatches fast path.
func (s *Server) notifyRequestWatches(total int64) {
	s.mu.Lock()
	kept := s.watches[:0]
	for _, w := range s.watches {
		if total >= w.n {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	for i := len(kept); i < len(s.watches); i++ {
		s.watches[i] = requestWatch{} // release fired channels
	}
	s.watches = kept
	if len(kept) == 0 {
		s.hasWatches.Store(false)
	}
	s.mu.Unlock()
}
