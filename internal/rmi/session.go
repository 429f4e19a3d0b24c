package rmi

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"aspectpar/internal/clock"
)

// This file is the session layer of the fault-tolerant transport: server
// incarnations are identified by a session epoch, clients handshake the
// epoch at connect time and can re-establish a failed connection with a
// bounded-backoff Reconnect, and session-tracked requests (a client tag, a
// monotone sequence number, an epoch stamp) give the server what it needs
// for exactly-once semantics under replay:
//
//   - at-most-once dedupe: a replayed request the server already applied is
//     answered from a bounded response cache instead of executing twice —
//     the guard that makes replaying an entire unacknowledged window safe
//     when the client cannot know how far the dead connection got;
//   - stale-session rejection: requests are pinned to the epoch the client
//     handshook with, so a restarted server (new epoch, state lost) or a
//     reset that rotated the epoch rejects replays that would otherwise
//     apply out of context.
//
// The replay policy itself — what to resend, where to fail over — lives a
// layer up, in par.NetRMI's journal; this file only provides mechanism.

// ErrStaleSession is wrapped in the error of a session-tracked request that
// was rejected because the server's session epoch no longer matches the
// client's stamp: the server restarted (losing the objects the request
// targets) or a reset rotated its epoch. The caller must re-handshake and
// re-establish its exports before retrying.
var ErrStaleSession = errors.New("stale session epoch")

const staleSessionMsg = "rmi: stale session epoch"

// epochSeq disambiguates servers created in the same nanosecond.
var epochSeq atomic.Int64

// newEpoch returns a fresh session epoch: the clock and a process-local
// counter make it unique within a process and across restarts on one host;
// the mixed-in random bits break the tie between incarnations started within
// the clock's granularity on *different* hosts, where the counter cannot
// help — without them two such incarnations could mint the same epoch and
// defeat stale-epoch rejection (a replay meant for the dead twin would be
// accepted by the live one).
func newEpoch(clk clock.Clock) int64 {
	return MixIdentity(clk.Now().UnixNano() + epochSeq.Add(1))
}

// MixIdentity folds 63 random bits into a clock+counter base so identity
// values (session epochs, fault-layer nonces) stay unique even when base
// collides across processes. Zero is reserved ("no epoch"), so it is never
// returned.
func MixIdentity(base int64) int64 {
	for {
		if id := base ^ rand.Int63(); id != 0 {
			return id
		}
	}
}

// dedupeKeep bounds the per-client response cache: responses of the last
// dedupeKeep applied sequence numbers can be replayed verbatim; older
// duplicates are answered with a bare acknowledgement. It comfortably covers
// any send window a replaying client can have had in flight.
const dedupeKeep = 256

// sessionKey scopes a dedupe session to one (client, stream) pair: each
// multiplexed stream runs its own monotone sequence space, so the server
// tracks applied watermarks and response caches per stream — a replay after
// reconnect is judged against exactly the lane it originally rode.
type sessionKey struct {
	client string
	stream uint32
}

// clientSession is the server side of one tracked (client, stream) lane: the
// highest applied sequence number, the recent response cache, and the
// dispatches currently in progress (so a replay of a call whose original is
// still executing waits for it instead of executing a second time).
type clientSession struct {
	applied    uint64
	results    map[uint64]*response
	inProgress map[uint64]chan struct{}
}

// trackedCall is one tracked request being dispatched: what endTracked needs
// to record its application.
type trackedCall struct {
	sess *clientSession
	seq  uint64
	done chan struct{} // closed when the dispatch finished
}

// beginTracked is the server side of at-most-once execution for one tracked
// request. It returns a non-nil response when the request must NOT be
// dispatched — it was already applied (the cached response, or a bare
// acknowledgement once pruned) — possibly after waiting for an in-progress
// original to finish. Otherwise it returns the trackedCall the handler must
// pass to endTracked with the dispatched response.
func (s *Server) beginTracked(client string, stream uint32, seq uint64) (*response, trackedCall) {
	s.mu.Lock()
	key := sessionKey{client: client, stream: stream}
	sess := s.sessions[key]
	if sess == nil {
		sess = &clientSession{results: make(map[uint64]*response), inProgress: make(map[uint64]chan struct{})}
		s.sessions[key] = sess
	}
	if seq <= sess.applied {
		r := sess.results[seq]
		s.mu.Unlock()
		if r == nil {
			r = &response{Bound: true}
		}
		return r, trackedCall{}
	}
	if ch, busy := sess.inProgress[seq]; busy {
		s.mu.Unlock()
		<-ch // the original dispatch is executing: wait, don't re-execute
		s.mu.Lock()
		r := sess.results[seq]
		s.mu.Unlock()
		if r == nil {
			r = &response{Bound: true}
		}
		return r, trackedCall{}
	}
	t := trackedCall{sess: sess, seq: seq, done: make(chan struct{})}
	sess.inProgress[seq] = t.done
	s.mu.Unlock()
	return nil, t
}

// endTracked records the application of a tracked request — resp joins the
// session's response cache — and wakes any replica of the request that arrived
// while it ran.
func (s *Server) endTracked(t trackedCall, resp *response) {
	sess, seq := t.sess, t.seq
	s.mu.Lock()
	if seq > sess.applied {
		sess.applied = seq
	}
	sess.results[seq] = resp
	delete(sess.results, seq-dedupeKeep)
	if len(sess.results) > 2*dedupeKeep { // gaps escaped the rolling delete
		for k := range sess.results {
			if k+dedupeKeep <= sess.applied {
				delete(sess.results, k)
			}
		}
	}
	delete(sess.inProgress, seq)
	close(t.done)
	s.mu.Unlock()
}

// rotateEpoch moves the server to a fresh session epoch and forgets every
// client session: tracked requests stamped with the previous epoch are
// rejected as stale from here on. A node's reset rotates, so a replay racing
// the reset cannot resurrect pre-reset state.
func (s *Server) rotateEpoch() {
	s.epoch.Store(newEpoch(s.clk))
	s.mu.Lock()
	s.sessions = make(map[sessionKey]*clientSession)
	s.mu.Unlock()
}

// dropConns force-closes every live connection while leaving the listener
// (and all server state: registry, sessions, epoch) intact — a transport
// blip, as opposed to Abort's process crash. Clients observe a connection
// failure and can Reconnect into the same session epoch.
func (s *Server) dropConns() {
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// ReconnectPolicy bounds Client.Reconnect's re-dial schedule. The zero value
// selects the defaults noted per field.
type ReconnectPolicy struct {
	// MaxAttempts is the number of dials per Reconnect; 0 selects 5.
	MaxAttempts int
	// BaseBackoff is the sleep before the second attempt, doubling per
	// attempt; 0 selects 5ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the doubling; 0 selects 250ms.
	MaxBackoff time.Duration
	// DialTimeout bounds each dial; 0 selects 2s.
	DialTimeout time.Duration
}

// WithDefaults returns the policy with every zero field replaced by its
// documented default — the schedule Reconnect actually runs. Exported so
// layers that must pace their own retries consistently with Reconnect (the
// fault middleware's export-retry grace) can compute the same budget.
func (p ReconnectPolicy) WithDefaults() ReconnectPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 5
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 5 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 250 * time.Millisecond
	}
	if p.DialTimeout <= 0 {
		p.DialTimeout = 2 * time.Second
	}
	return p
}

// Epoch returns the server session epoch of the last handshake — Dial's
// WithSession, Reconnect's or Handshake's — and zero before the first.
func (c *Client) Epoch() int64 { return c.epoch.Load() }

// Handshake performs the session-epoch exchange and records the server's
// epoch as the stamp of subsequent tracked requests. It pipelines like any
// other call.
func (c *Client) Handshake() (int64, error) {
	req := requestPool.Get().(*request)
	req.Hello = true
	resp, err := c.roundTrip(req)
	if err != nil {
		return 0, err
	}
	c.epoch.Store(resp.Epoch)
	return resp.Epoch, nil
}

// Reconnect re-establishes a failed connection to the same address under
// the client's ReconnectPolicy (bounded attempts, exponential backoff) and
// re-handshakes the session epoch. Pending calls of the dead connection
// were already resolved with the transport error by fail; Reconnect resets
// the transport state so the same Client — and every Stub minted from it —
// works again. It reports whether the server kept its session epoch: true
// means the same incarnation survived a transport blip (its objects and
// dedupe state are intact, so replaying unacknowledged requests is safe);
// false means a fresh incarnation (a restarted node: exports and sessions
// are gone, and stale replays would be rejected anyway). The comparison needs
// an epoch from before: a client dialled without WithSession has none until
// it calls Handshake, so its Reconnect reports false. The one caller that
// replays, a fault-policy par.NetRMI, always dials with a session.
//
// Reconnect refuses on a client that was explicitly Closed.
func (c *Client) Reconnect() (sameEpoch bool, err error) {
	c.mu.Lock()
	if c.userClosed {
		c.mu.Unlock()
		return false, ErrClosed
	}
	pol := c.policy.WithDefaults()
	prev := c.epoch.Load()
	gen := c.gen
	clk := c.clk
	closeCh := c.closeCh
	c.mu.Unlock()
	// A Reconnect on a still-healthy connection (a caller that detected the
	// failure out of band) drains it first, so no pending entry is orphaned
	// by the swap.
	c.fail(gen, errors.New("rmi: reconnecting"))

	// One attempt is a dial plus the handshake on it: a dial that succeeds
	// into a dying listener (accept-and-close, a partition) has not
	// reconnected anything, so it backs off and tries again like a refused
	// one, on the same schedule and out of the same budget.
	backoff := pol.BaseBackoff
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			// The backoff must be interruptible: a recovery loop parked here
			// when the middleware shuts down would otherwise pin Close for the
			// rest of the schedule (up to the full attempt budget of MaxBackoff
			// waits). Park on a stoppable timer and race it against Close.
			t := clk.NewTimer(backoff)
			select {
			case <-closeCh:
				t.Stop()
				return false, ErrClosed
			case <-t.C():
			}
			backoff *= 2
			if backoff > pol.MaxBackoff {
				backoff = pol.MaxBackoff
			}
		}
		var conn net.Conn
		if conn, err = net.DialTimeout("tcp", c.addr, pol.DialTimeout); err != nil {
			err = fmt.Errorf("rmi: reconnect %s: %w", c.addr, err)
			continue
		}
		if err = c.install(conn); err != nil {
			return false, err
		}
		var epoch int64
		if epoch, err = c.Handshake(); err == nil {
			return prev != 0 && epoch == prev, nil
		}
		// Half-open, and already failed (a handshake errs only through
		// fail): drop the socket before the next attempt or the caller's
		// failover, so nothing lingers on a connection that never formed.
		err = fmt.Errorf("rmi: reconnect handshake: %w", err)
		conn.Close()
	}
	return false, err
}

// InvokeSeq ships the invocation and hands its outcome to sink — the
// windowed dispatch path: no future, no per-call goroutine, and one pooled
// pending entry as the call's whole footprint in this package, which the
// alloc-regression tests pin. With seq > 0 on a client dialled WithSession
// the request is session-tracked: it carries the caller-assigned sequence
// number (plus the client's session tag and epoch stamp), so a replay of the
// same seq after a reconnect is applied at most once by the server; seq must
// then be monotone per client session and stream. Zero sends it untracked.
//
// Delivery is exactly-once by ownership, not by a guard per call: once the
// pending entry is on its stream's FIFO, only whoever takes it off — the
// reader with the reply, or the failing connection's drain — delivers; a call
// the dead connection never accepted is delivered here, inline.
func (s *Stub) InvokeSeq(method string, seq uint64, sink Sink, args ...any) {
	if method == "" {
		sink.Deliver(nil, errEmptyMethod)
		return
	}
	s.invoke(method, seq, false, sink, args)
}

// SendSeq ships a session-tracked one-way invocation with a per-call
// acknowledgement: sink is delivered exactly once (see InvokeSeq) with no
// results and a nil error once the server acknowledged the send, the
// servant's RemoteError when it failed remotely, or the transport error when
// the connection died or the send itself failed — the journal bookkeeping a
// replaying caller needs, which the collective Flush cannot provide. Like
// Send, it blocks on the flow-control window; unlike Send, its remote
// failures are NOT accumulated for Flush (the sink owns them).
func (s *Stub) SendSeq(method string, seq uint64, sink Sink, args ...any) {
	if method == "" {
		sink.Deliver(nil, errEmptyMethod)
		return
	}
	if err := s.client.acquireSendCredit(); err != nil {
		sink.Deliver(nil, err)
		return
	}
	s.invoke(method, seq, true, sink, args)
}

func (s *Stub) invoke(method string, seq uint64, oneWay bool, sink Sink, args []any) {
	p := acquirePending()
	p.sink, p.oneWay = sink, oneWay
	s.client.submit(s.request(method, args, seq, oneWay), p)
}
