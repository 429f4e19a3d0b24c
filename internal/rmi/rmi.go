// Package rmi is a working remote method invocation middleware: the Go
// analogue of the Java RMI substrate the paper's distribution aspect targets.
// It provides a name server (registry), exported objects served over TCP —
// in the compact binary codec by default, or in gob where a client asks for
// it, one codec per connection — and client stubs that redirect
// method calls across the network. The simulated experiments use the
// cost-model twin in package par; this package exists so the distribution
// concern also runs for real (see examples/distribution and the tests).
//
// The transport is pipelined: a client may have many requests on the wire at
// once over its single TCP connection, and the server answers them in order.
// Three invocation shapes build on that:
//
//   - [Stub.Invoke] — the classic synchronous round trip;
//   - [Stub.InvokeAsync] — returns a future immediately; the caller overlaps
//     its own work (or further invocations) with the round trip and collects
//     the result with wait-by-necessity;
//   - [Stub.Send] — one-way windowed dispatch: the call returns as soon as
//     the request is written, bounded by an explicit flow-control window of
//     unacknowledged sends ([DefaultSendWindow]); server-side failures are
//     gathered by [Client.Flush].
package rmi

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"aspectpar/internal/clock"
	"aspectpar/internal/future"
)

// DispatchFunc executes a method on the exported object — the skeleton side
// of the call.
type DispatchFunc func(method string, args []any) ([]any, error)

// RemoteError carries a server-side failure back to the caller (the
// analogue of Java's RemoteException payload).
type RemoteError struct{ Msg string }

// Error implements error.
func (e *RemoteError) Error() string { return "rmi: remote error: " + e.Msg }

// ErrNotBound is wrapped in lookup failures for unknown names.
var ErrNotBound = errors.New("rmi: name not bound")

// ErrClosed is returned for operations on a closed client; pending futures
// resolve with it when Close interrupts calls mid-window.
var ErrClosed = errors.New("rmi: client closed")

// DefaultSendWindow is the initial flow-control window of a client: the
// number of one-way sends that may be unacknowledged before Send blocks.
const DefaultSendWindow = 32

func init() {
	// Wire types that cross the connection inside []any.
	gob.Register([]int32(nil))
	gob.Register([]int64(nil))
	gob.Register([]float64(nil))
	gob.Register([]byte(nil))
}

// RegisterType makes a concrete argument/result type encodable across RMI, on
// both codecs: gob requires concrete types carried in interfaces to be
// registered, and the binary codec sends a registered slice type whose
// elements are int32, int64, float64 or byte (type Frame []float64), or a
// slice of such slices ([]Frame), under its name with the fast-path array
// encoding — it arrives as the same concrete type, without a gob stream per
// value. Structs, maps and everything else registered here cross the binary
// codec inside a gob blob. Both ends must register the same types; a name the
// receiver does not know is a decode error.
func RegisterType(v any) {
	gob.Register(v)
	registerNamed(reflect.TypeOf(v))
}

// request/response are the wire protocol. Every request — including one-way
// sends — is answered by exactly one response on the same connection, in
// request order: one-way responses are bare acknowledgements (no results
// payload) whose only job is to clock the sender's flow-control window.
type request struct {
	Object string
	Method string
	Args   []any
	// OneWay asks the server to acknowledge without shipping results.
	OneWay bool
	// Hello marks a session handshake probe: the server answers with its
	// session epoch and dispatches nothing.
	Hello bool
	// Client, Seq and Epoch tag a session-tracked request (fault-tolerant
	// callers): Client identifies the logical sender across reconnects, Seq
	// is its monotone per-connection-session sequence number (the server
	// deduplicates replays at most once), and Epoch pins the request to the
	// server incarnation the client handshook with — a restarted (or reset)
	// server rejects stale replays instead of applying them out of context.
	// All three are zero on untracked traffic, which skips every check.
	Client string
	Seq    uint64
	Epoch  int64
	// Stream selects the server dispatch lane of a multiplexed connection.
	// Stream 0 is the legacy lane: dispatched inline in connection order,
	// exactly the pre-multiplexing FIFO pipeline. Streams > 0 each get their
	// own FIFO dispatch goroutine, so a slow call on one stream no longer
	// head-of-line-blocks the others. Sequence spaces (Seq) and the server's
	// dedupe sessions are per (Client, Stream).
	Stream uint32
}

type response struct {
	Results []any
	Err     string
	Bound   bool // lookup replies
	// Epoch is the server's session epoch, stamped on handshake replies.
	Epoch int64
	// Stale marks a rejected session-tracked request whose epoch no longer
	// matches the server's (restarted node, or a reset rotated the epoch).
	Stale bool
	// Stream echoes the request's stream, so the client's reader can match
	// the response to the right per-stream FIFO.
	Stream uint32
}

// Server hosts exported objects and the name server.
type Server struct {
	// mu guards everything below without its own synchronisation. handle
	// takes it shared, for the one map read every request of every lane
	// makes; all other users take it exclusively.
	mu       sync.RWMutex
	ln       net.Listener
	objects  map[string]DispatchFunc
	conns    map[net.Conn]struct{}
	closed   bool
	done     chan struct{} // closed when shutdown begins (see Done)
	wg       sync.WaitGroup
	epoch    atomic.Int64
	requests atomic.Int64
	sessions map[sessionKey]*clientSession

	// clk is the server's time source: the drain grace and injected dispatch
	// delays both flow through it. Fixed before Listen (WithClock), so the
	// serving goroutines read it without locking.
	clk clock.Clock

	// Fault-injection state (see inject.go).
	partitioned   atomic.Bool
	dispatchDelay atomic.Int64 // ns slept on clk before each dispatch
	hasWatches    atomic.Bool  // fast-path gate for requestWatches
	watches       []requestWatch

	// Membership state (see heartbeat.go): hb is fixed at construction;
	// the channels exist only while the registration loop runs.
	hb           heartbeatConfig
	hbStop       chan struct{}
	hbDone       chan struct{}
	hbDeregister atomic.Bool
}

// NewServer returns a server with an empty registry and a fresh session
// epoch (see Epoch), configured by opts (clock, registry, heartbeat).
func NewServer(opts ...Option) *Server {
	var o options
	o.apply(opts)
	s := &Server{
		objects:  make(map[string]DispatchFunc),
		conns:    make(map[net.Conn]struct{}),
		sessions: make(map[sessionKey]*clientSession),
		done:     make(chan struct{}),
		clk:      clock.Or(o.clk),
		hb:       heartbeatConfig{registry: o.registry, interval: o.heartbeat},
	}
	s.epoch.Store(newEpoch(s.clk))
	return s
}

// Export binds an object under a name (the registry's bind operation).
// Rebinding a name replaces the previous object, like Java's Naming.rebind.
func (s *Server) Export(name string, dispatch DispatchFunc) {
	s.mu.Lock()
	s.objects[name] = dispatch
	s.mu.Unlock()
}

// Unexport removes a binding; it reports whether the name was bound.
func (s *Server) Unexport(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.objects[name]
	delete(s.objects, name)
	return ok
}

// Names lists the bound names (diagnostics).
func (s *Server) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.objects))
	for n := range s.objects {
		out = append(out, n)
	}
	return out
}

// Listen starts serving on addr ("127.0.0.1:0" picks a free port) and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("rmi: listen: %w", err)
	}
	return s.serve(ln), nil
}

// serve starts serving on a listener the caller made (Listen's; a test's,
// whose connections count their writes) and returns its address.
func (s *Server) serve(ln net.Listener) string {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	s.startHeartbeat(ln.Addr().String())
	return ln.Addr().String()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if s.partitioned.Load() {
			// Partitioned: the TCP level still answers (the host is up) but no
			// session can form — accept and immediately close, so clients see
			// a dial that succeeds and a first exchange that fails.
			conn.Close()
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// streamLane is one multiplexed dispatch lane of a connection: an unbounded
// FIFO fed by the read loop and drained by a dedicated goroutine, so lanes
// make progress independently. Closing a lane lets it finish what is queued
// (the graceful-drain contract of Server.Close).
type streamLane struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  fifo[*request]
	closed bool
}

func newStreamLane() *streamLane {
	l := &streamLane{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *streamLane) enqueue(req *request) {
	l.mu.Lock()
	l.queue.push(req)
	l.cond.Signal()
	l.mu.Unlock()
}

func (l *streamLane) close() {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

// run dispatches the lane's requests in order. The lane owns each request
// from the moment the read loop queued it and releases it once its reply is
// written; scratch is the one response record it fills for all of them.
func (l *streamLane) run(s *Server, w *frameWriter, stream uint32) {
	var scratch response
	for {
		l.mu.Lock()
		for l.queue.len() == 0 && !l.closed {
			l.cond.Wait()
		}
		if l.queue.len() == 0 {
			l.mu.Unlock()
			return
		}
		req := l.queue.pop()
		l.mu.Unlock()
		resp := s.handle(req, &scratch)
		resp.Stream = stream
		// A write failure is terminal for the connection (the writer's error
		// is sticky); keep draining so queued requests still execute — their
		// effects are journaled server-side and the client replays/dedupes.
		w.writeResponse(resp)
		releaseRequest(req)
	}
}

// serveConn serves one connection in the codec its first byte names.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	br := bufio.NewReaderSize(conn, connBufSize)
	var w *frameWriter
	lanes := make(map[uint32]*streamLane)
	var laneWG sync.WaitGroup
	defer func() {
		for _, l := range lanes {
			l.close()
		}
		laneWG.Wait() // lanes drain their queues before the socket drops,
		if w != nil { // and so do the replies still in the buffer (an aborted socket fails this at once)
			w.drain()
			w.stop()
		}
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	tag, err := br.ReadByte()
	codec := codecByTag(tag)
	if err != nil || codec == nil {
		return // closed before its first frame, or a codec this server does not know
	}
	w = newFrameWriter(conn, codec, nil)
	dec := codec.newDecoder(br)
	// ahead is this loop's own unit in w.expecting: held while the read
	// buffer has bytes behind the request just decoded, because their
	// replies are about to follow this one's.
	ahead := false
	var scratch response // the inline lane's reply record
	for {
		req := requestPool.Get().(*request)
		if err := dec.DecodeRequest(req); err != nil {
			releaseRequest(req)
			return // EOF or broken connection
		}
		w.expecting.Add(1)
		if more := br.Buffered() > 0; more != ahead {
			ahead = more
			if more {
				w.expecting.Add(1)
			} else {
				w.expecting.Add(-1)
			}
		}
		if d := s.dispatchDelay.Load(); d > 0 {
			s.clk.Sleep(time.Duration(d)) // injected slow link (see inject.go)
		}
		if req.Stream != 0 {
			lane := lanes[req.Stream]
			if lane == nil {
				lane = newStreamLane()
				lanes[req.Stream] = lane
				laneWG.Add(1)
				stream := req.Stream
				go func() {
					defer laneWG.Done()
					lane.run(s, w, stream)
				}()
			}
			lane.enqueue(req) // the lane releases it
			continue
		}
		resp := s.handle(req, &scratch)
		err := w.writeResponse(resp)
		releaseRequest(req)
		if err != nil {
			return
		}
	}
}

// handle executes one request and returns its reply: scratch, filled in — the
// caller's own record, reused for its next request once this reply is written
// — or, for a session-tracked request, a response of its own, because the
// dedupe cache keeps it to answer replays.
func (s *Server) handle(req *request, scratch *response) *response {
	resp := scratch
	*resp = response{}
	total := s.requests.Add(1)
	if s.hasWatches.Load() {
		s.notifyRequestWatches(total)
	}
	if req.Hello { // session handshake: report the epoch, dispatch nothing
		resp.Bound, resp.Epoch = true, s.epoch.Load()
		return resp
	}
	s.mu.RLock()
	dispatch, ok := s.objects[req.Object]
	s.mu.RUnlock()
	if req.Method == "" { // lookup probe
		resp.Bound = ok
		return resp
	}
	var tracked trackedCall
	if req.Client != "" && req.Seq > 0 {
		// Session guard: a request pinned to another incarnation's epoch is a
		// stale replay — a restarted node (or a rotated epoch after a reset)
		// must reject it rather than apply it out of context.
		if req.Epoch != 0 && req.Epoch != s.epoch.Load() {
			resp.Stale, resp.Err = true, staleSessionMsg
			return resp
		}
		// At-most-once dedupe: a replayed request the server already applied
		// — or is applying right now on another connection — is answered
		// without executing again (see beginTracked).
		var applied *response
		if applied, tracked = s.beginTracked(req.Client, req.Stream, req.Seq); applied != nil {
			return applied
		}
		resp = new(response)
	}
	if !ok {
		resp.Err = fmt.Sprintf("object %q not bound", req.Object)
	} else {
		results, err := safeDispatch(dispatch, req.Method, req.Args)
		resp.Bound = true
		if !req.OneWay { // a one-way reply is a bare acknowledgement
			resp.Results = results
		}
		if err != nil {
			resp.Err = err.Error()
		}
	}
	if tracked.sess != nil {
		s.endTracked(tracked, resp)
	}
	return resp
}

// Done returns a channel closed when the server begins shutting down (Close
// or Abort). A servant method that parks — blocks waiting for an event at its
// object, like a long-poll read — selects on it, so the shutdown drain is not
// held up by a wait that nothing will end. Such a call belongs on a stream of
// its own (Stub.OnStream): stream 0 dispatches inline in the connection's read
// loop, where a parked call would stall every request behind it.
func (s *Server) Done() <-chan struct{} { return s.done }

// safeDispatch runs the servant method, converting a panic into an error so
// one faulty servant call cannot crash the serving goroutine (and with it the
// whole connection, taking every pipelined in-flight call down).
func safeDispatch(dispatch DispatchFunc, method string, args []any) (results []any, err error) {
	defer func() {
		if r := recover(); r != nil {
			results, err = nil, fmt.Errorf("panic in servant method %s: %v", method, r)
		}
	}()
	return dispatch(method, args)
}

// closeDrainGrace bounds Close's graceful drain: a serving goroutine stuck
// past it — a servant that never returns, or a response write to a peer that
// stopped reading — is cut off by force-closing its connection, so Close
// cannot hang on a wedged peer.
var closeDrainGrace = 30 * time.Second

// Close stops the listener and shuts down every connection deterministically:
// it closes each connection's read side, so no new request can arrive, and
// then waits for the serving goroutines to finish the calls already being
// dispatched and write their responses on the still-open write side. A call
// in flight at Close therefore completes normally at its caller instead of
// surfacing as a spurious transport or remote error from a half-written
// response. Close blocks until every in-flight call has drained, escalating
// to a forced disconnect after closeDrainGrace; to model a crash that
// abandons in-flight calls immediately, use Abort.
func (s *Server) Close() {
	s.shutdown(false)
}

// Abort force-closes the listener and every connection without draining:
// calls in flight are abandoned mid-dispatch and their clients observe a
// transport failure — the behaviour of a crashed peer, which the distributed
// failure-mode tests need to provoke on demand. Abort still waits for the
// serving goroutines to exit.
func (s *Server) Abort() {
	s.shutdown(true)
}

func (s *Server) shutdown(abort bool) {
	// Tell the registry first (graceful shutdowns deregister; aborts go
	// silent and rely on missed beats), so a pool watching the registry
	// stops placing on this node before its listener even closes.
	s.stopHeartbeat(!abort)
	s.mu.Lock()
	if s.closed {
		// Repeated shutdown: an Abort overtaking a graceful drain still
		// force-closes the remaining connections (its contract is immediate
		// abandonment); anything else just waits for the first shutdown.
		var conns []net.Conn
		if abort {
			for c := range s.conns {
				conns = append(conns, c)
			}
		}
		s.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
		s.wg.Wait()
		return
	}
	s.closed = true
	// Release parked servant calls first: the drain below waits for every
	// dispatch in progress, and a call parked on an event that may never come
	// would otherwise hold it until closeDrainGrace.
	close(s.done)
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		if abort {
			c.Close()
		} else {
			closeRead(c)
		}
	}
	if abort {
		s.wg.Wait()
		return
	}
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	// A stoppable timer, not time.After: the fast path (every clean shutdown)
	// must not leave a 30s timer pinned in the runtime per server closed.
	grace := s.clk.NewTimer(closeDrainGrace)
	select {
	case <-drained:
		grace.Stop()
	case <-grace.C():
		// The drain is stuck — abandon the wedged connections and wait for
		// their serving goroutines to observe the forced close.
		for _, c := range conns {
			c.Close()
		}
		<-drained
	}
}

// closeRead shuts down the receive side of a connection so the serving loop's
// next Decode fails deterministically while responses already being computed
// can still be written. Transports without half-close fall back to an
// immediate read deadline, which unblocks a pending Decode the same way.
func closeRead(conn net.Conn) {
	type readCloser interface{ CloseRead() error }
	if rc, ok := conn.(readCloser); ok {
		rc.CloseRead()
		return
	}
	conn.SetReadDeadline(time.Now())
}

// Sink receives the outcome of one asynchronous call, exactly once: the
// results and the error — a RemoteError for a servant failure, the transport
// error when the connection died or the send itself failed. Deliver runs on
// the client's reader goroutine (or inline, when the call could not be sent)
// and must not block; handing off to a buffered channel fits. A caller that
// keeps a record per call of its own implements Sink on that record and pays
// no closure per call; SinkFunc adapts a plain function.
type Sink interface {
	Deliver(res []any, err error)
}

// SinkFunc adapts a function to Sink.
type SinkFunc func(res []any, err error)

// Deliver implements Sink.
func (f SinkFunc) Deliver(res []any, err error) { f(res, err) }

// pendingReply is the one record a call has while its request is on the wire.
// The server answers each stream in request order, so the client keeps a FIFO
// of these per stream.
//
// Ownership: the poster fills a record from the pool and post enqueues it;
// from then on it belongs to whoever takes it off the FIFO — the reader with
// the reply, or fail's drain with the connection's error — who completes it,
// exactly once. A record that never made the FIFO (the connection was already
// dead) is completed by its poster. Completing releases the record back to
// the pool, zeroed, after handing the outcome to its sink; the record of a
// parked call is instead handed back to the goroutine parked on it, which
// reads the reply and releases it. Nothing a caller or servant sees — argument
// and result lists, completions — is ever part of a record.
type pendingReply struct {
	oneWay bool
	// sink takes the outcome of an asynchronous call; nil on a parked one.
	sink Sink
	// parked marks a synchronous call: its goroutine waits on done, then
	// finds the reply copied into resp (the reader reuses its own) or the
	// transport error in err.
	parked bool
	done   sync.WaitGroup
	resp   response
	err    error
	// live is set while the record awaits its one completion; completing a
	// record that is not live — twice, or after its release — is a bug in
	// the ownership rule above and panics instead of reaching a stranger.
	live atomic.Bool
}

// oneWayAck is the shared pending entry of every plain one-way Send: the
// reader only clocks the window on it and never completes it, so the windowed
// hot path enqueues one static record.
var oneWayAck = &pendingReply{oneWay: true}

var pendingPool = sync.Pool{New: func() any { return new(pendingReply) }}

func acquirePending() *pendingReply {
	p := pendingPool.Get().(*pendingReply)
	p.live.Store(true)
	return p
}

func releasePending(p *pendingReply) {
	*p = pendingReply{}
	pendingPool.Put(p)
}

// complete gives the record its outcome: the reply, or the transport error
// that ended the wait (see the ownership rule on pendingReply).
func (p *pendingReply) complete(resp *response, err error) {
	if !p.live.CompareAndSwap(true, false) {
		panic("rmi: pending reply completed twice or after its release")
	}
	if p.parked {
		if resp != nil {
			p.resp = *resp
		}
		p.err = err
		p.done.Done() // the parked caller owns the record from here
		return
	}
	sink := p.sink
	releasePending(p)
	sink.Deliver(outcome(resp, err)) // a one-way reply is a bare acknowledgement: no results
}

// requestPool recycles request frames: on the send path a request is fully
// serialised when Encode returns, so post releases it at once; on the serving
// path the read loop decodes into one and the lane that dispatched it releases
// it after writing the reply. Only the frame is recycled — the argument list
// it pointed at belongs to the servant.
var requestPool = sync.Pool{New: func() any { return new(request) }}

func releaseRequest(req *request) {
	*req = request{}
	requestPool.Put(req)
}

// Client is a pipelined connection to an RMI server: requests are written in
// call order and a background reader matches the in-order responses back to
// callers, so many invocations can overlap on one TCP connection (like a
// single RMI transport channel with HTTP/1.1-style pipelining).
type Client struct {
	addr string

	// w is the live generation's frame writer. Its mutex serialises encoder
	// writes, and post appends the pending entry under it too, so queue order
	// always equals wire order. install swaps in a fresh writer per
	// connection generation.
	w atomic.Pointer[frameWriter]

	// codec is the frame codec of every connection generation — BinaryCodec
	// unless WithCodec said otherwise — named to the server by the
	// generation's first byte.
	codec Codec

	mu            sync.Mutex
	cond          *sync.Cond
	conn          net.Conn
	gen           int64 // connection generation, bumped by Reconnect
	pending       map[uint32]*fifo[*pendingReply]
	transport     error // sticky first transport failure (per generation)
	userClosed    bool  // Close was called: Reconnect must refuse
	windowSize    int
	inFlightSends int     // unacknowledged one-way sends
	sendErrs      []error // remote failures of one-way sends, drained by Flush

	policy  ReconnectPolicy // Reconnect's backoff schedule
	session string          // session tag for tracked requests ("" = untracked)
	epoch   atomic.Int64    // last handshaken server epoch (the request stamp)

	clk     clock.Clock   // Reconnect's backoff waits ride this
	closeCh chan struct{} // closed once by Close; aborts a backoff in flight
}

// Dial connects to an RMI server, configured by opts (clock, reconnect
// policy, session identity, codec). The connection speaks one codec for its
// whole life — BinaryCodec unless WithCodec says otherwise — named to the
// server by its first byte, which leaves with the first frame. Dial makes no
// round trip, except that a client dialled WithSession makes one Hello to
// learn the server's epoch (see Epoch) before it returns; a server that
// accepts that connection but never answers makes Dial fail when the
// connection closes, not return a client that cannot call.
func Dial(addr string, opts ...Option) (*Client, error) {
	var o options
	o.apply(opts)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rmi: dial %s: %w", addr, err)
	}
	return newClient(addr, conn, o)
}

// newClient is Dial over a connection the caller made (Dial's own; a test's,
// which counts or fails its writes).
func newClient(addr string, conn net.Conn, o options) (*Client, error) {
	c := &Client{
		addr:       addr,
		codec:      o.codec,
		windowSize: DefaultSendWindow,
		clk:        clock.Or(o.clk),
		closeCh:    make(chan struct{}),
		session:    o.session,
	}
	if c.codec == nil {
		c.codec = BinaryCodec()
	}
	if o.policy != nil {
		c.policy = *o.policy
	}
	c.cond = sync.NewCond(&c.mu)
	c.install(conn) // refuses only a Closed client, which a new one is not
	if c.session != "" {
		if _, err := c.Handshake(); err != nil {
			c.Close()
			return nil, fmt.Errorf("rmi: dial %s: handshake: %w", addr, err)
		}
	}
	return c, nil
}

// install makes conn the client's next connection generation: a fresh frame
// writer (with its own flusher) and reader, clean transport state, the
// previous generation's writer stopped and its socket closed. The codec's tag
// waits in the fresh writer's buffer, so it leaves with the first frame. It
// refuses on a client that was explicitly Closed.
func (c *Client) install(conn net.Conn) error {
	c.mu.Lock()
	if c.userClosed {
		c.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	old, oldW := c.conn, c.w.Load()
	c.gen++
	gen := c.gen
	w := newFrameWriter(conn, c.codec, func(err error) { c.fail(gen, fmt.Errorf("rmi: send: %w", err)) })
	w.bw.WriteByte(c.codec.tag()) // an empty buffer takes a byte without writing
	c.conn = conn
	c.w.Store(w)
	c.transport = nil
	c.pending = make(map[uint32]*fifo[*pendingReply])
	c.inFlightSends = 0
	c.sendErrs = nil
	c.cond.Broadcast()
	c.mu.Unlock()
	if old != nil {
		oldW.stop()
		old.Close()
	}
	go c.readLoop(c.codec.newDecoder(bufio.NewReaderSize(conn, connBufSize)), w, gen)
	return nil
}

// Close closes the connection. Requests already posted reach the server
// first: whatever the frame writer still buffers is written out before the
// socket drops. Calls still in flight — including a window of unacknowledged
// sends — resolve with ErrClosed rather than blocking forever. A closed
// client stays closed: Reconnect refuses to revive it.
func (c *Client) Close() error {
	c.mu.Lock()
	first := !c.userClosed
	c.userClosed = true
	if first && c.closeCh != nil {
		close(c.closeCh) // aborts a Reconnect parked in its backoff
	}
	gen := c.gen
	conn := c.conn
	healthy := c.transport == nil
	c.mu.Unlock()
	if healthy {
		// A peer that stopped reading must not pin Close on a full socket:
		// the drain (and any write it queues behind) is cut off like the
		// server's own shutdown drain.
		conn.SetWriteDeadline(time.Now().Add(closeDrainGrace))
		c.w.Load().drain()
	}
	c.fail(gen, ErrClosed)
	return conn.Close()
}

// fail records the first transport error of connection generation gen,
// resolves every pending call with it and wakes all blocked senders.
// Subsequent calls are no-ops — the first failure is the one every caller
// sees — and a stale generation (a reader outliving a Reconnect) cannot
// poison the fresh connection.
func (c *Client) fail(gen int64, err error) {
	c.mu.Lock()
	if c.transport != nil || gen != c.gen {
		c.mu.Unlock()
		return
	}
	c.transport = err
	c.w.Load().stop() // a dead generation needs no flusher
	failed := c.pending
	c.pending = make(map[uint32]*fifo[*pendingReply])
	// Nothing is in flight on a dead connection: the loss itself is reported
	// by Flush's transport error, so the window must not stay pinned open —
	// quiescence checks would otherwise never settle.
	c.inFlightSends = 0
	c.cond.Broadcast()
	c.mu.Unlock()
	// Drain stream by stream in ascending id, FIFO within each, so error
	// delivery order is deterministic.
	streams := make([]uint32, 0, len(failed))
	for s := range failed {
		streams = append(streams, s)
	}
	slices.Sort(streams)
	for _, s := range streams {
		for q := failed[s]; q.len() > 0; {
			if p := q.pop(); p != oneWayAck {
				p.complete(nil, err)
			}
		}
	}
}

// readLoop is the client's single response reader: it decodes responses and
// completes the head of the matching stream's pending FIFO, acknowledging
// one-way sends, waking parked callers and handing outcomes to sinks. gen pins
// the loop to its connection generation: after a Reconnect swapped the
// transport, a lingering old reader must neither consume the new generation's
// pending entries nor fail the fresh connection. It decodes every response
// into the one record it owns; completing a call copies out what the call
// keeps.
func (c *Client) readLoop(dec frameDecoder, w *frameWriter, gen int64) {
	resp := new(response)
	for {
		*resp = response{}
		if err := dec.DecodeResponse(resp); err != nil {
			if errors.Is(err, io.EOF) {
				err = fmt.Errorf("rmi: connection closed by server: %w", err)
			} else {
				err = fmt.Errorf("rmi: receive: %w", err)
			}
			c.fail(gen, err)
			return
		}
		w.expecting.Add(-1)
		c.mu.Lock()
		if gen != c.gen {
			c.mu.Unlock()
			return // stale reader: a Reconnect replaced this connection
		}
		q := c.pending[resp.Stream]
		if q == nil || q.len() == 0 {
			c.mu.Unlock()
			c.fail(gen, errors.New("rmi: response without matching request"))
			return
		}
		p := q.pop()
		if p.oneWay {
			c.inFlightSends--
			c.cond.Broadcast()
			if p == oneWayAck && resp.Err != "" {
				c.sendErrs = append(c.sendErrs, &RemoteError{Msg: resp.Err})
			}
		}
		c.mu.Unlock()
		if p != oneWayAck {
			p.complete(resp, nil)
		}
	}
}

// post enqueues the pending entry on its stream's FIFO and writes the
// request, preserving FIFO order between the two, and releases the request
// frame: it is fully on the buffered writer when Encode returns. posted
// reports whether the entry made the FIFO — from then on whoever takes it off
// completes it, and err (a failed send) is only news for a caller without an
// entry of its own; when it did not, the connection was already dead, err
// says why, and the entry is still the caller's. An encode failure poisons
// the connection: neither gob nor the binary framing can resynchronise after
// a partial write. A request with a sequence number is session-tracked: it
// ships the client's session tag and epoch stamp alongside, arming the
// server's dedupe and stale-replay guards (scoped per stream).
//
// How the frame leaves the buffer is the frame writer's rule (see
// frameWriter.leave): flushed here when no reply is pending — a lone call —
// and left to the connection's flusher otherwise. If that flush fails, the
// flusher poisons the connection through fail exactly as a failed flush here
// does, so every buffered frame's pending entry resolves and no frame is
// silently stranded.
func (c *Client) post(req *request, p *pendingReply) (posted bool, err error) {
	defer releaseRequest(req)
	if req.Seq > 0 && c.session != "" {
		req.Client, req.Epoch = c.session, c.epoch.Load()
	} else {
		req.Seq = 0
	}
	var w *frameWriter
	for {
		w = c.w.Load()
		w.mu.Lock()
		c.mu.Lock()
		if err := c.transport; err != nil {
			c.mu.Unlock()
			w.mu.Unlock()
			return false, err
		}
		if c.w.Load() == w {
			break
		}
		// A Reconnect installed the next generation between the load and
		// the lock: post on that one.
		c.mu.Unlock()
		w.mu.Unlock()
	}
	gen := c.gen
	q := c.pending[req.Stream]
	if q == nil {
		q = new(fifo[*pendingReply])
		c.pending[req.Stream] = q
	}
	q.push(p)
	c.mu.Unlock()
	err = w.leave(w.enc.EncodeRequest(req), w.expecting.Add(1) == 1)
	w.mu.Unlock()
	if err != nil {
		err = fmt.Errorf("rmi: send: %w", err)
		c.fail(gen, err)
	}
	return true, err
}

// submit posts req with p as its pending entry; an entry that never made the
// FIFO is completed here, with the error that kept it off.
func (c *Client) submit(req *request, p *pendingReply) {
	if posted, err := c.post(req, p); !posted {
		p.complete(nil, err)
	}
}

// roundTrip performs one synchronous exchange: it posts req and parks the
// calling goroutine on the pending entry until the reader hands it the reply
// or the connection fails.
func (c *Client) roundTrip(req *request) (response, error) {
	p := acquirePending()
	p.parked = true
	p.done.Add(1)
	c.submit(req, p)
	p.done.Wait()
	resp, err := p.resp, p.err
	releasePending(p)
	return resp, err
}

// acquireSendCredit blocks until the flow-control window has room, the
// window is the paper-style explicit throttle on one-way traffic.
func (c *Client) acquireSendCredit() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.transport == nil && c.inFlightSends >= c.windowSize {
		c.cond.Wait()
	}
	if c.transport != nil {
		return c.transport
	}
	c.inFlightSends++
	return nil
}

// Flush blocks until every outstanding one-way send has been acknowledged
// and returns the accumulated remote failures (drained: a second Flush
// reports only newer ones). A transport failure surfaces here too.
func (c *Client) Flush() error {
	c.mu.Lock()
	for c.transport == nil && c.inFlightSends > 0 {
		c.cond.Wait()
	}
	errs := c.sendErrs
	c.sendErrs = nil
	if c.transport != nil {
		errs = append(errs, c.transport)
	}
	c.mu.Unlock()
	return errors.Join(errs...)
}

// Lookup resolves a name to a stub; it fails with ErrNotBound for unknown
// names (the client contacting the name server, the paper's modification 3).
func (c *Client) Lookup(name string) (*Stub, error) {
	req := requestPool.Get().(*request)
	req.Object = name
	resp, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	if !resp.Bound {
		return nil, fmt.Errorf("%w: %s", ErrNotBound, name)
	}
	return &Stub{client: c, name: name}, nil
}

// Stub is a client-side remote reference: method calls on it redirect over
// the network (the paper's modification 4, with the try/catch logic folded
// into the returned error).
type Stub struct {
	client *Client
	name   string
	stream uint32
}

// Name returns the bound name this stub refers to.
func (s *Stub) Name() string { return s.name }

// Client returns the connection this stub invokes over.
func (s *Stub) Client() *Client { return s.client }

// Stream returns the multiplexed stream this stub's calls ride (0 is the
// inline legacy lane).
func (s *Stub) Stream() uint32 { return s.stream }

// OnStream returns a copy of the stub bound to the given stream. Calls on
// different streams of one connection are dispatched concurrently by the
// server and answered independently — a slow call holds up only its own
// stream — while calls on one stream keep the strict FIFO pipeline order.
// Session-tracked sequence numbers (InvokeSeq/SendSeq) are scoped per
// stream: callers maintain one monotone seq space per stream they use.
func (s *Stub) OnStream(stream uint32) *Stub {
	return &Stub{client: s.client, name: s.name, stream: stream}
}

// request fills a pooled request frame for one invocation on this stub.
func (s *Stub) request(method string, args []any, seq uint64, oneWay bool) *request {
	req := requestPool.Get().(*request)
	req.Object, req.Method, req.Args, req.Stream = s.name, method, args, s.stream
	req.Seq, req.OneWay = seq, oneWay
	return req
}

var errEmptyMethod = errors.New("rmi: empty method name")

// Invoke performs the remote method invocation synchronously: the calling
// goroutine parks on the call's pending entry until the reply arrives.
func (s *Stub) Invoke(method string, args ...any) ([]any, error) {
	if method == "" {
		return nil, errEmptyMethod
	}
	resp, err := s.client.roundTrip(s.request(method, args, 0, false))
	return outcome(&resp, err)
}

// InvokeAsync ships the invocation and returns immediately with a future for
// its results — asynchronous method invocation with wait-by-necessity. The
// request is pipelined onto the stub's connection, so a caller that keeps
// several invocations in flight hides the per-call round-trip latency that a
// chain of synchronous Invokes would pay serially.
func (s *Stub) InvokeAsync(method string, args ...any) *future.Future[[]any] {
	f, resolve := future.New[[]any]()
	s.InvokeCB(method, resolve, args...)
	return f
}

// outcome maps one wire response to the caller-visible results and error —
// a RemoteError for servant failures, ErrStaleSession for session-epoch
// rejections, nil with nil results for deduplicated replays whose cached
// response was pruned.
func outcome(resp *response, err error) ([]any, error) {
	switch {
	case err != nil:
		return nil, err
	case resp.Stale:
		return nil, fmt.Errorf("rmi: %w", ErrStaleSession)
	case resp.Err != "":
		return resp.Results, &RemoteError{Msg: resp.Err}
	default:
		return resp.Results, nil
	}
}

// InvokeCB ships the invocation like InvokeAsync but delivers the outcome
// through deliver instead of a future: no future, no per-call goroutine —
// InvokeSeq without a sequence number, for a caller with a plain function
// (see Sink for when and where deliver runs).
func (s *Stub) InvokeCB(method string, deliver func([]any, error), args ...any) {
	s.InvokeSeq(method, 0, SinkFunc(deliver), args...)
}

// Send ships a one-way invocation: it returns once the request is encoded
// into the connection's write buffer (which the frame writer empties without
// further help from the caller), without waiting for execution, discarding
// any results. In-flight sends are
// bounded by the client's flow-control window — Send blocks while a full
// window of sends is unacknowledged, so a fast producer cannot bury a slow
// server. Remote failures are reported collectively by Flush.
func (s *Stub) Send(method string, args ...any) error {
	if method == "" {
		return errEmptyMethod
	}
	if err := s.client.acquireSendCredit(); err != nil {
		return err
	}
	_, err := s.client.post(s.request(method, args, 0, true), oneWayAck)
	return err
}

// Flush waits for this stub's connection to drain its one-way window; see
// Client.Flush.
func (s *Stub) Flush() error { return s.client.Flush() }
