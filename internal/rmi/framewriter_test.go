package rmi

import (
	"bufio"
	"errors"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aspectpar/internal/clock"
)

// The tests below reach the transport through its two unexported seams —
// Server.serve takes the listener, newClient takes the connection — so a test
// can count, fail or drop what crosses the socket without an exported hook.

var errWriteFailed = errors.New("test: write failed")

// tapConn counts its Write calls — one per write(2) the frame writer issues —
// fails them once armed, and keeps their bytes off the wire while held.
type tapConn struct {
	net.Conn
	writes *atomic.Int64
	fail   *atomic.Bool // nil: never fails
	hold   *heldWrites  // nil: never held
}

func (c tapConn) Write(p []byte) (int, error) {
	if c.fail != nil && c.fail.Load() {
		return 0, errWriteFailed
	}
	c.writes.Add(1)
	if c.hold != nil && c.hold.keep(p) {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// heldWrites holds what a connection writes. While held, a Write keeps its
// bytes and returns at once, as a socket with room in its send buffer does;
// release puts everything kept on the wire in one write, so the peer reads
// it all at once. The frame writer holds its mutex across a write, so a
// Write that blocked would hold up every frame behind it: the bytes are held
// instead.
type heldWrites struct {
	mu   sync.Mutex
	held bool
	kept []byte
}

func (h *heldWrites) hold() {
	h.mu.Lock()
	h.held = true
	h.mu.Unlock()
}

func (h *heldWrites) keep(p []byte) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.held {
		h.kept = append(h.kept, p...)
	}
	return h.held
}

// release writes what was kept to conn, under the lock: a Write racing the
// release cannot overtake it.
func (h *heldWrites) release(conn net.Conn) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.held = false
	_, err := conn.Write(h.kept)
	h.kept = h.kept[:0]
	return err
}

// tapListener hands out connections that count into writes, after closing
// the first `drop` of them unserved (a listener on its way down).
type tapListener struct {
	net.Listener
	writes *atomic.Int64
	drop   *atomic.Int32
}

func (l tapListener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if l.drop.Add(-1) >= 0 {
			conn.Close()
			continue
		}
		return tapConn{Conn: conn, writes: l.writes}, nil
	}
}

// tapped is one server behind a tapListener and one client over a tapConn.
type tapped struct {
	srv          *Server
	client       *Client
	raw          net.Conn // the client's socket, under its tap
	stub         *Stub
	clientWrites atomic.Int64
	serverWrites atomic.Int64
	failWrites   atomic.Bool  // arms the client connection's write failure
	dropAccepts  atomic.Int32 // connections the listener closes unserved
	holdClient   heldWrites   // holds the client connection's writes
}

func startTapped(t *testing.T, dispatch DispatchFunc, opts ...Option) *tapped {
	t.Helper()
	tp := &tapped{srv: NewServer()}
	tp.srv.Export("obj", dispatch)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	addr := tp.srv.serve(tapListener{Listener: ln, writes: &tp.serverWrites, drop: &tp.dropAccepts})
	t.Cleanup(tp.srv.Close)
	tp.raw, err = net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var o options
	o.apply(opts)
	tp.client, err = newClient(addr, tapConn{Conn: tp.raw, writes: &tp.clientWrites, fail: &tp.failWrites, hold: &tp.holdClient}, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tp.client.Close() })
	tp.stub = &Stub{client: tp.client, name: "obj"}
	return tp
}

// withWindow sets a client's one-way flow-control window (DefaultSendWindow
// unless a test changes it) before its first send.
func withWindow(c *Client, n int) {
	c.mu.Lock()
	c.windowSize = n
	c.mu.Unlock()
}

func echo(method string, args []any) ([]any, error) { return args, nil }

// await fails the test if ch does not deliver within a generous bound: a
// missed flush shows up as a hang, and the bound turns it into a failure.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// TestWritesPerLoneInvoke pins the idle rule: a synchronous call on an
// otherwise idle connection is flushed by its own writer on each side — one
// write for the request, one for the reply, no hand-off to the flusher.
func TestWritesPerLoneInvoke(t *testing.T) {
	tp := startTapped(t, echo)
	payload := make([]byte, 64)
	if _, err := tp.stub.Invoke("M", payload); err != nil { // past the handshake
		t.Fatal(err)
	}
	const calls = 100
	cw, sw := tp.clientWrites.Load(), tp.serverWrites.Load()
	for i := 0; i < calls; i++ {
		if _, err := tp.stub.Invoke("M", payload); err != nil {
			t.Fatal(err)
		}
	}
	if cw, sw = tp.clientWrites.Load()-cw, tp.serverWrites.Load()-sw; cw != calls || sw != calls {
		t.Errorf("%d lone calls cost %d client writes and %d server writes, want exactly %d + %d", calls, cw, sw, calls, calls)
	}
}

// clientBuffered reports how many bytes the client's frame writer holds.
func (tp *tapped) clientBuffered() int {
	w := tp.client.w.Load()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bw.Buffered()
}

// TestWritesPerWindowedCall pins what the frame writer is for: a window of
// calls posted by one goroutine, which never contends with itself for the
// write lock, shares its writes each way. Before the writer followed the
// traffic, 64 calls cost 64 writes on each side.
//
// The batch is the test's script, not the scheduler's. The client's writes
// are held, so the server reads nothing until the whole window is written,
// and each round runs on one P with the collector off, where the flusher
// cannot run until the poster parks. The first call finds the connection
// idle and is flushed by its poster; the other 63 leave in the flusher's one
// write, whatever streams they ride. The server reads all 64 requests at
// once. On stream 0 it answers them inline: 63 replies wait in the buffer
// while more requests are buffered behind them, and the last, which finds
// the connection idle, flushes all 64 in one write. On the lanes (streams
// 1–3, the streams a NetRMI dialled with several streams puts its calls on)
// each lane goroutine answers its whole share when it is scheduled, and the
// flusher runs only between two lanes' turns: the replies leave in at most
// one write per lane (3 per 64 calls), fewer when the flusher runs late and
// merges two lanes' replies. Which it does is the scheduler's choice, so the
// lanes are held to that bound, not to an exact count.
//
// The runtime preempts a goroutine only after 10 ms on its P, so a round
// that took under 2 ms ran as scripted. A longer one may have been cut by
// the host's load, not the code: it is run again, its counts not judged.
func TestWritesPerWindowedCall(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds scheduling points the script relies on not having")
	}
	tp := startTapped(t, echo)
	payload := make([]byte, 64)
	lanes := []*Stub{tp.stub.OnStream(1), tp.stub.OnStream(2), tp.stub.OnStream(3)}
	for _, s := range append([]*Stub{tp.stub}, lanes...) { // past the handshake, every lane started
		if _, err := s.Invoke("M", payload); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	const window, rounds, attempts = 64, 8, 200
	const clientWant, serverWant = 2, 1
	done := make(chan error, window)
	deliver := func(_ []any, err error) { done <- err }
	// script runs rounds of one window posted round-robin over stubs until
	// 8 ran undisturbed, and hands each undisturbed round's write counts to
	// judge: the client's before the server read any (posted) and in all.
	script := func(stubs []*Stub, judge func(posted, cw, sw int64)) (attempt int) {
		for clean := 0; clean < rounds; attempt++ {
			if attempt == attempts {
				t.Fatalf("only %d of %d attempts ran undisturbed", clean, attempts)
			}
			cw, sw := tp.clientWrites.Load(), tp.serverWrites.Load()
			start := time.Now()
			tp.holdClient.hold()
			for i := 0; i < window; i++ {
				stubs[i%len(stubs)].InvokeCB("M", deliver, payload)
			}
			for tp.clientBuffered() > 0 { // let the flusher run
				if time.Since(start) > 10*time.Second {
					t.Fatal("the client's frame writer never emptied its buffer")
				}
				runtime.Gosched()
			}
			posted := tp.clientWrites.Load() - cw
			if err := tp.holdClient.release(tp.raw); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < window; i++ {
				if err := await(t, done, "a windowed completion"); err != nil {
					t.Fatal(err)
				}
			}
			if time.Since(start) > 2*time.Millisecond {
				continue // longer than an undisturbed round takes by far
			}
			clean++
			judge(posted, tp.clientWrites.Load()-cw, tp.serverWrites.Load()-sw)
		}
		return attempt
	}
	n := script([]*Stub{tp.stub}, func(posted, cw, sw int64) {
		if posted != clientWant || cw != clientWant || sw != serverWant {
			t.Fatalf("stream 0: %d calls cost %d client writes (%d before the server read any) and %d server writes, want exactly %d and %d",
				window, cw, posted, sw, clientWant, serverWant)
		}
	})
	t.Logf("stream 0: %d undisturbed rounds of %d calls in %d attempts: %d client and %d server writes each", rounds, window, n, clientWant, serverWant)
	laneServerMax := int64(len(lanes))
	laneWrites := make([]int, laneServerMax+1)
	n = script(lanes, func(posted, cw, sw int64) {
		if posted != clientWant || cw != clientWant || sw < 1 || sw > laneServerMax {
			t.Fatalf("lanes: %d calls cost %d client writes (%d before the server read any) and %d server writes, want exactly %d and 1 to %d",
				window, cw, posted, sw, clientWant, laneServerMax)
		}
		laneWrites[sw]++
	})
	t.Logf("lanes: %d undisturbed rounds of %d calls in %d attempts: %d client writes each; rounds by server writes (0 to %d): %v",
		rounds, window, n, clientWant, laneServerMax, laneWrites)
}

// parkingServant blocks "Park" until released and echoes everything else.
func parkingServant() (dispatch DispatchFunc, parked <-chan struct{}, release func()) {
	in, gate := make(chan struct{}, 16), make(chan struct{}) // 16: more than any test parks at once
	return func(method string, args []any) ([]any, error) {
		if method == "Park" {
			in <- struct{}{}
			<-gate
		}
		return args, nil
	}, in, sync.OnceFunc(func() { close(gate) })
}

// TestFrameWriterParkedCallHoldsNobody is the liveness half of the writer's
// invariant. With a call parked on stream 1 the connection is never idle, so
// every later frame — request and reply — is left to a flusher: an
// InvokeAsync whose caller does nothing but wait must still be answered, and
// the servant blocked on stream 1 must not hold stream 2's or 3's reply.
func TestFrameWriterParkedCallHoldsNobody(t *testing.T) {
	dispatch, parked, release := parkingServant()
	tp := startTapped(t, dispatch)
	defer release()
	parkedCall := tp.stub.OnStream(1).InvokeAsync("Park")
	await(t, parked, "the parked call to reach its servant")

	answered := make(chan error, 1)
	f := tp.stub.OnStream(2).InvokeAsync("M", int64(7))
	go func() { _, err := f.Get(); answered <- err }()
	if err := await(t, answered, "an InvokeAsync nobody follows up on"); err != nil {
		t.Fatal(err)
	}
	go func() { _, err := tp.stub.OnStream(3).Invoke("M", int64(8)); answered <- err }()
	if err := await(t, answered, "a synchronous call beside the parked one"); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := parkedCall.TryGet(); ok {
		t.Fatal("the parked call resolved before its servant was released")
	}
	release()
	go func() { _, err := parkedCall.Get(); answered <- err }()
	if err := await(t, answered, "the released parked call"); err != nil {
		t.Fatal(err)
	}
}

// TestFrameWriterSendLoopCompletes: a lone goroutine that fills the send
// window parks on it with its own frames possibly still buffered; only the
// flusher can move them. On one P that is also the only moment the flusher
// gets to run — where a missed flush hangs rather than slows down.
func TestFrameWriterSendLoopCompletes(t *testing.T) {
	loop := func(t *testing.T) {
		var applied atomic.Int64
		tp := startTapped(t, func(string, []any) ([]any, error) { applied.Add(1); return nil, nil })
		withWindow(tp.client, 4)
		const sends = 2000
		finished := make(chan error, 1)
		go func() {
			for i := 0; i < sends; i++ {
				if err := tp.stub.Send("M", int64(i)); err != nil {
					finished <- err
					return
				}
			}
			finished <- tp.client.Flush()
		}()
		if err := await(t, finished, "the send loop"); err != nil {
			t.Fatal(err)
		}
		if got := applied.Load(); got != sends {
			t.Errorf("servant applied %d of %d sends", got, sends)
		}
	}
	t.Run("procs=default", loop)
	t.Run("procs=1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		loop(t)
	})
}

// TestFrameWriterCloseDeliversBufferedSends: Send returns once the request is
// in the writer's buffer, not on the wire; a Close right behind a burst must
// still put every one of them on the socket, intact and in order, before it
// drops. The peer here reads and never answers: with acknowledgements unread
// at the client, closing the socket resets the connection and TCP itself
// discards what the server had not read yet — on any transport, batching or
// not — so what the servant sees is not the writer's to promise.
func TestFrameWriterCloseDeliversBufferedSends(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer ln.Close()
	received := make(chan []int64, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		br.ReadByte() // the codec's tag
		dec := BinaryCodec().newDecoder(br)
		var got []int64
		for {
			var req request
			if dec.DecodeRequest(&req) != nil { // the client's FIN, after the last frame
				received <- got
				return
			}
			got = append(got, req.Args[0].(int64))
		}
	}()
	const sends = 500
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	withWindow(c, sends)
	stub := &Stub{client: c, name: "obj"}
	for i := 0; i < sends; i++ {
		if err := stub.Send("M", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	got := await(t, received, "the peer to read up to the client's close")
	if len(got) != sends {
		t.Fatalf("%d of %d sends posted before Close reached the socket", len(got), sends)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("frame %d carries %d: out of order", i, v)
		}
	}
}

// TestFrameWriterServerCloseDeliversBufferedReplies: replies written while
// the connection expects more traffic sit in the writer's buffer until the
// flusher runs; a graceful Server.Close must write them out before the socket
// drops, so every call dispatched before Close completes with its real result.
// The script makes the replies outstanding at Close buffered ones: the read
// loop is held inside a stream-0 servant while the whole burst — and then the
// first bytes of a frame that never completes — pile up in the socket, so the
// loop decodes the burst in one read with unread bytes always behind it and no
// reply finds the connection idle. Each lane's last call holds until Close is
// under way.
func TestFrameWriterServerCloseDeliversBufferedReplies(t *testing.T) {
	parked, held := make(chan struct{}, 1), make(chan struct{}, 3)
	park, hold := make(chan struct{}), make(chan struct{})
	tp := startTapped(t, func(method string, args []any) ([]any, error) {
		switch method {
		case "Park":
			parked <- struct{}{}
			<-park
		case "Hold":
			held <- struct{}{}
			<-hold
		}
		return args, nil
	})
	unpark := sync.OnceFunc(func() { close(park) })
	defer unpark() // on every path: a servant left blocked would pin the server's shutdown
	defer close(hold)
	const calls = 90
	results := make(chan error, calls+1)
	deliver := func(_ []any, err error) { results <- err }
	tp.stub.InvokeCB("Park", deliver) // stream 0: dispatched by the read loop itself
	await(t, parked, "the read loop to park in its servant")
	for i := 0; i < calls; i++ {
		method := "M"
		if i >= calls-3 {
			method = "Hold" // the last frame of each lane
		}
		tp.stub.OnStream(uint32(1+i%3)).InvokeCB(method, deliver, int64(i))
	}
	if err := tp.client.w.Load().drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := tp.raw.Write([]byte{100, bkRequest, 0}); err != nil { // a 100-byte frame, 2 bytes of it
		t.Fatal(err)
	}
	unpark()
	for i := 0; i < 3; i++ {
		await(t, held, "each lane to reach its last call") // so every frame has been decoded
	}
	closed := make(chan struct{})
	go func() { tp.srv.Close(); close(closed) }()
	hold <- struct{}{}
	hold <- struct{}{}
	hold <- struct{}{}
	for i := 0; i <= calls; i++ {
		if err := await(t, results, "a reply across Server.Close"); err != nil {
			t.Fatalf("reply %d of %d across a graceful Close failed: %v", i, calls+1, err)
		}
	}
	await(t, closed, "Server.Close")
}

// TestFrameWriterAbortDoesNotDrain: Abort is a crash — it returns without
// waiting for the parked servant's reply to exist, let alone be written, and
// the caller sees a transport error.
func TestFrameWriterAbortDoesNotDrain(t *testing.T) {
	dispatch, parked, release := parkingServant()
	tp := startTapped(t, dispatch)
	defer release()
	f := tp.stub.OnStream(1).InvokeAsync("Park")
	await(t, parked, "the call to park")
	failed := make(chan error, 1)
	go func() { _, err := f.Get(); failed <- err }()
	go tp.srv.Abort() // returns once the servant is released, below
	if err := await(t, failed, "the aborted call to fail"); err == nil {
		t.Fatal("a call across Abort completed")
	}
}

// TestFrameWriterFlusherFailurePoisons: a write that fails on the flusher
// goroutine — nobody's post is there to return the error to — must poison the
// connection exactly as a failed inline flush does: every pending callback
// fires once with the transport error, post refuses from then on, and a
// Reconnect starts a clean generation the dead one's flusher cannot touch.
func TestFrameWriterFlusherFailurePoisons(t *testing.T) {
	dispatch, parked, release := parkingServant()
	tp := startTapped(t, dispatch, WithReconnect(ReconnectPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}))
	defer release()
	const calls = 40
	var fired [calls + 1]atomic.Int32
	errs := make(chan error, calls+1)
	deliver := func(i int) func([]any, error) {
		return func(_ []any, err error) {
			fired[i].Add(1)
			errs <- err
		}
	}
	// A parked call keeps the connection busy: every post below is left to
	// the flusher, whose write then fails.
	tp.stub.OnStream(1).InvokeCB("Park", deliver(calls))
	await(t, parked, "the call to park")
	tp.failWrites.Store(true)
	for i := 0; i < calls; i++ {
		tp.stub.OnStream(2).InvokeCB("M", deliver(i), int64(i))
	}
	for i := 0; i <= calls; i++ {
		if err := await(t, errs, "every pending callback to fire"); !errors.Is(err, errWriteFailed) {
			t.Fatalf("callback %d resolved with %v, want the transport's write error", i, err)
		}
	}
	if posted, err := tp.client.post(tp.stub.OnStream(2).request("M", nil, 0, false), acquirePending()); posted || !errors.Is(err, errWriteFailed) {
		t.Errorf("post on the poisoned connection returned %v, want the write error", err)
	}
	dead := tp.client.w.Load()
	release() // the parked servant's reply goes to a connection nobody reads any more

	if _, err := tp.client.Reconnect(); err != nil {
		t.Fatalf("Reconnect: %v", err)
	}
	if live := tp.client.w.Load(); live == dead {
		t.Fatal("Reconnect kept the failed generation's writer")
	}
	select {
	case <-dead.quit:
	default:
		t.Error("the failed generation's flusher was not stopped")
	}
	before := tp.clientWrites.Load()
	for i := 0; i < 20; i++ {
		if res, err := tp.stub.OnStream(2).Invoke("M", int64(i)); err != nil || res[0] != int64(i) {
			t.Fatalf("call %d on the reconnected generation = %v, %v", i, res, err)
		}
	}
	if after := tp.clientWrites.Load(); after != before {
		t.Errorf("the dead connection saw %d writes after Reconnect", after-before)
	}
	for i := range fired {
		if n := fired[i].Load(); n != 1 {
			t.Errorf("callback %d fired %d times, want exactly once", i, n)
		}
	}
}

// TestReconnectRetriesFailedHandshake is the regression test for Reconnect
// spending one dial and giving up: a listener on its way down (or back up)
// accepts and closes, so the dial succeeds and the handshake fails. That is
// one failed attempt, not an exhausted budget — the third attempt, two
// backoffs later on the client's clock, finds the server serving again.
func TestReconnectRetriesFailedHandshake(t *testing.T) {
	v := clock.NewVirtual(time.Unix(0, 0))
	defer v.Close()
	tp := startTapped(t, echo, WithClock(v), WithSession("retry"),
		WithReconnect(ReconnectPolicy{MaxAttempts: 3, BaseBackoff: time.Hour, MaxBackoff: time.Hour}))
	epoch := tp.client.Epoch()
	tp.dropAccepts.Store(2)
	tp.srv.DropConns()

	type outcome struct {
		same bool
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		same, err := tp.client.Reconnect()
		done <- outcome{same, err}
	}()
	for attempt := uint64(1); attempt <= 2; attempt++ {
		v.AwaitWaits(attempt) // the failed handshake sent Reconnect into its backoff
		select {
		case o := <-done:
			t.Fatalf("Reconnect returned (%v, %v) after %d attempts with budget left", o.same, o.err, attempt)
		default:
		}
		v.Advance(time.Hour)
	}
	o := await(t, done, "Reconnect's third attempt")
	if o.err != nil || !o.same {
		t.Fatalf("Reconnect = (%v, %v), want the same epoch on the third attempt", o.same, o.err)
	}
	if got := tp.client.Epoch(); got != epoch {
		t.Errorf("epoch %d after Reconnect, want %d", got, epoch)
	}
	if res, err := tp.stub.Invoke("M", int64(5)); err != nil || res[0] != int64(5) {
		t.Fatalf("call after Reconnect = %v, %v", res, err)
	}
	if v.TotalWaits() != 2 {
		t.Errorf("%d backoff waits, want 2 (one between each pair of attempts)", v.TotalWaits())
	}
}
