package rmi

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
)

// roundTrip pushes a frame through one codec's encoder and decoder.
func roundTripRequest(t *testing.T, c Codec, in *request) *request {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := c.newEncoder(bw).EncodeRequest(in); err != nil {
		t.Fatalf("%s encode: %v", c.Name(), err)
	}
	bw.Flush()
	var out request
	if err := c.newDecoder(bufio.NewReader(&buf)).DecodeRequest(&out); err != nil {
		t.Fatalf("%s decode: %v", c.Name(), err)
	}
	return &out
}

func roundTripResponse(t *testing.T, c Codec, in *response) *response {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := c.newEncoder(bw).EncodeResponse(in); err != nil {
		t.Fatalf("%s encode: %v", c.Name(), err)
	}
	bw.Flush()
	var out response
	if err := c.newDecoder(bufio.NewReader(&buf)).DecodeResponse(&out); err != nil {
		t.Fatalf("%s decode: %v", c.Name(), err)
	}
	return &out
}

// wireValueCases covers every dedicated binary tag plus the gob fallback
// (time.Duration is registered via RegisterType in this test).
func wireValueCases() []any {
	return []any{
		nil,
		true,
		false,
		int(0),
		int(-1),
		int(1 << 40),
		int32(-7),
		int32(1 << 30),
		int64(-1 << 50),
		float64(3.14159),
		float64(-0.0),
		"",
		"hello wire",
		[]byte{0, 1, 2, 255},
		[]int32{-1, 0, 1, 1 << 30},
		[]int64{-1 << 40, 9},
		[]float64{1.5, -2.25},
		[]any{int32(1), "nested", []int32{2, 3}},
		time.Duration(42), // exotic: rides the vGob fallback
	}
}

func TestBinaryCodecRoundTripsRequests(t *testing.T) {
	RegisterType(time.Duration(0))
	in := &request{
		Object: "PS1",
		Method: "Sieve",
		Args:   wireValueCases(),
		OneWay: true,
		Client: "netrmi-1/n0",
		Seq:    99,
		Epoch:  -12345,
		Stream: 3,
	}
	out := roundTripRequest(t, BinaryCodec(), in)
	if !reflect.DeepEqual(in, out) {
		t.Errorf("binary round trip mutated the request:\n in: %#v\nout: %#v", in, out)
	}
}

func TestBinaryCodecRoundTripsResponses(t *testing.T) {
	RegisterType(time.Duration(0))
	cases := []*response{
		{Results: wireValueCases(), Bound: true, Stream: 7},
		{Err: "servant failure", Bound: true},
		{Bound: true, Epoch: -42},
		{Stale: true},
		{Results: []any{}, Bound: true}, // empty, not nil
	}
	for i, in := range cases {
		out := roundTripResponse(t, BinaryCodec(), in)
		if !reflect.DeepEqual(in, out) {
			t.Errorf("case %d: binary round trip mutated the response:\n in: %#v\nout: %#v", i, in, out)
		}
	}
}

// TestBinaryMatchesGobSemantics pins the equivalence the mixed-codec cells
// rely on: for every wire value, decoding a binary frame yields the same
// Go value a gob frame yields.
func TestBinaryMatchesGobSemantics(t *testing.T) {
	RegisterType(time.Duration(0))
	for i, v := range wireValueCases() {
		if v == nil {
			continue // gob cannot ship nil interface values; binary can
		}
		in := &request{Object: "o", Method: "m", Args: []any{v}}
		bin := roundTripRequest(t, BinaryCodec(), in)
		gb := roundTripRequest(t, GobCodec(), in)
		if !reflect.DeepEqual(bin.Args, gb.Args) {
			t.Errorf("case %d (%T): binary decoded %#v, gob decoded %#v", i, v, bin.Args, gb.Args)
		}
	}
}

func TestBinaryDecoderRejectsCorruptFrames(t *testing.T) {
	// A valid frame, then every truncation and a few byte corruptions of it:
	// decode must error (or succeed), never panic.
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	enc := BinaryCodec().newEncoder(bw)
	if err := enc.EncodeRequest(&request{Object: "x", Method: "y", Args: []any{[]int32{1, 2, 3}, "s"}}); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	frame := buf.Bytes()
	for cut := 0; cut < len(frame); cut++ {
		var req request
		dec := BinaryCodec().newDecoder(bufio.NewReader(bytes.NewReader(frame[:cut])))
		if err := dec.DecodeRequest(&req); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	for i := range frame {
		mutated := append([]byte(nil), frame...)
		mutated[i] ^= 0xff
		var req request
		dec := BinaryCodec().newDecoder(bufio.NewReader(bytes.NewReader(mutated)))
		_ = dec.DecodeRequest(&req) // must not panic; error is fine
	}
}

// liveCodec names the codec a client's connection currently encodes in.
func liveCodec(c *Client) string {
	w := c.w.Load()
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.enc.(*binEncoder); ok {
		return binaryName
	}
	return gobName
}

// codecCases: against one default server, each client speaks the codec it
// was dialled with — binary unless WithCodec says otherwise. A Dial makes no
// round trip unless it has a session whose epoch it must learn; then it
// makes one.
var codecCases = []struct {
	name    string
	opts    []Option
	want    string
	session bool
}{
	{"binary", []Option{WithCodec(BinaryCodec())}, binaryName, false},
	{"gob", []Option{WithCodec(GobCodec())}, gobName, false},
	{"nil", []Option{WithCodec(nil)}, binaryName, false},
	{"default with session", []Option{WithSession("sess-bin")}, binaryName, true},
	{"gob with session", []Option{WithCodec(GobCodec()), WithSession("sess-gob")}, gobName, true},
}

// echoServer serves an "echo" object on loopback, or skips the test.
func echoServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewServer()
	srv.Export("echo", func(method string, args []any) ([]any, error) { return args, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

// checkCodecEcho checks that c speaks want and that an echo round-trips.
func checkCodecEcho(t *testing.T, c *Client, want, when string) {
	t.Helper()
	if got := liveCodec(c); got != want {
		t.Errorf("%s the client speaks %s, want %s", when, got, want)
	}
	stub, err := c.Lookup("echo")
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	res, err := stub.Invoke("m", []int32{5, 6}, "tag")
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if got, ok := res[0].([]int32); !ok || len(got) != 2 || got[0] != 5 || got[1] != 6 || res[1] != "tag" {
		t.Errorf("%s the echo returned %v", when, res)
	}
}

// TestCodecNegotiation: a connection's codec is named by its first byte, so
// each client speaks its own codec from the first frame, and a Dial makes a
// round trip only to learn a session's epoch.
func TestCodecNegotiation(t *testing.T) {
	srv, addr := echoServer(t)
	for _, tc := range codecCases {
		t.Run(tc.name, func(t *testing.T) {
			before := srv.Requests()
			c, err := Dial(addr, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			wantRequests, wantEpoch := int64(0), int64(0)
			if tc.session {
				wantRequests, wantEpoch = 1, srv.Epoch()
			}
			if got := srv.Requests() - before; got != wantRequests {
				t.Errorf("Dial made %d requests, want %d", got, wantRequests)
			}
			if got := c.Epoch(); got != wantEpoch {
				t.Errorf("epoch after Dial %d, want %d", got, wantEpoch)
			}
			checkCodecEcho(t, c, tc.want, "after Dial")
		})
	}
}

// TestCodecNegotiationSurvivesReconnect: a Reconnect names the client's codec
// again on the new connection, learns the server's epoch, and reports the
// same epoch only for a client with a session.
func TestCodecNegotiationSurvivesReconnect(t *testing.T) {
	srv, addr := echoServer(t)
	for _, tc := range codecCases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Dial(addr, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			checkCodecEcho(t, c, tc.want, "after Dial")
			srv.DropConns()
			same, err := c.Reconnect()
			if err != nil {
				t.Fatal(err)
			}
			if same != tc.session {
				t.Errorf("Reconnect reported same epoch %v, want %v", same, tc.session)
			}
			if got := c.Epoch(); got != srv.Epoch() {
				t.Errorf("epoch after Reconnect %d, want the server's %d", got, srv.Epoch())
			}
			checkCodecEcho(t, c, tc.want, "after Reconnect")
		})
	}
}

// TestUnknownCodecTagClosesConnection: a connection whose first byte names no
// codec is closed by the server before it handles anything.
func TestUnknownCodecTagClosesConnection(t *testing.T) {
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0xff}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after an unknown codec tag = %d, %v; want EOF", n, err)
	}
	if n := srv.Requests(); n != 0 {
		t.Errorf("server handled %d requests", n)
	}
}

// TestStreamsAvoidHeadOfLineBlocking is the multiplexing contract: a call
// parked on stream 1 must not delay a call on stream 2 of the same
// connection.
func TestStreamsAvoidHeadOfLineBlocking(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv := NewServer()
	srv.Export("svc", func(method string, args []any) ([]any, error) {
		if method == "Block" {
			entered <- struct{}{}
			<-release
			return []any{"slow"}, nil
		}
		return []any{"fast"}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer srv.Close()
	defer close(release)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stub, err := c.Lookup("svc")
	if err != nil {
		t.Fatal(err)
	}
	slow := stub.OnStream(1).InvokeAsync("Block")
	<-entered // the blocked call is provably dispatching
	// A same-stream call behind it must queue; a cross-stream call must not.
	if res, err := stub.OnStream(2).Invoke("Quick"); err != nil || res[0].(string) != "fast" {
		t.Fatalf("cross-stream call behind a blocked stream: res=%v err=%v", res, err)
	}
	select {
	case <-slow.Done():
		t.Fatal("blocked call completed before release")
	default:
	}
	release <- struct{}{}
	if res, err := slow.Get(); err != nil || res[0].(string) != "slow" {
		t.Fatalf("blocked call after release: res=%v err=%v", res, err)
	}
}

// TestStreamsPreserveFIFOWithinStream pins per-stream ordering: calls on one
// stream are dispatched in send order even when other streams interleave.
func TestStreamsPreserveFIFOWithinStream(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[uint32][]int)
	srv := NewServer()
	srv.Export("svc", func(method string, args []any) ([]any, error) {
		mu.Lock()
		stream := uint32(args[0].(int))
		seen[stream] = append(seen[stream], args[1].(int))
		mu.Unlock()
		return nil, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stub, err := c.Lookup("svc")
	if err != nil {
		t.Fatal(err)
	}
	const perStream = 50
	streams := []uint32{1, 2, 3}
	for i := 0; i < perStream; i++ {
		for _, s := range streams {
			if err := stub.OnStream(s).Send("Mark", int(s), i); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, s := range streams {
		if len(seen[s]) != perStream {
			t.Fatalf("stream %d saw %d calls, want %d", s, len(seen[s]), perStream)
		}
		for i, v := range seen[s] {
			if v != i {
				t.Fatalf("stream %d dispatched out of order: position %d holds %d (full: %v)", s, i, v, seen[s])
			}
		}
	}
}

// TestStreamDedupeIsPerStream pins the (client, stream, seq) dedupe scoping:
// the same seq on two streams is two distinct calls, while a replay on one
// stream is deduplicated.
func TestStreamDedupeIsPerStream(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	srv := NewServer()
	srv.Export("svc", func(method string, args []any) ([]any, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		return []any{n}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer srv.Close()

	c, err := Dial(addr, WithSession("dedupe-test"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Handshake(); err != nil {
		t.Fatal(err)
	}
	stub, err := c.Lookup("svc")
	if err != nil {
		t.Fatal(err)
	}
	invoke := func(stream uint32, seq uint64) int {
		done := make(chan int, 1)
		stub.OnStream(stream).InvokeSeq("M", seq, SinkFunc(func(res []any, err error) {
			if err != nil {
				t.Errorf("stream %d seq %d: %v", stream, seq, err)
				done <- -1
				return
			}
			done <- res[0].(int)
		}))
		return <-done
	}
	first := invoke(1, 1)
	second := invoke(2, 1) // same seq, different stream: a distinct call
	replay := invoke(1, 1) // same stream and seq: deduplicated
	if first == second {
		t.Errorf("same seq on two streams deduplicated: both returned %d", first)
	}
	if replay != first {
		t.Errorf("replay on stream 1 re-executed: first %d, replay %d", first, replay)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 2 {
		t.Errorf("server executed %d calls, want 2 (one per stream, replay deduped)", calls)
	}
}

func TestCodecByName(t *testing.T) {
	for _, name := range []string{"gob", "binary"} {
		c, err := CodecByName(name)
		if err != nil || c.Name() != name {
			t.Errorf("CodecByName(%q) = %v, %v", name, c, err)
		}
	}
	if _, err := CodecByName("protobuf"); err == nil {
		t.Error("unknown codec name resolved")
	}
}

func TestServeOnExistingListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	srv := NewServer()
	srv.serve(ln)
	defer srv.Close()
	srv.Export("echo", func(method string, args []any) ([]any, error) { return args, nil })
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stub, err := c.Lookup("echo")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := stub.Invoke("m", "ping"); err != nil || res[0].(string) != "ping" {
		t.Fatalf("invoke over Serve listener: res=%v err=%v", res, err)
	}
}

func ExampleDial() {
	srv := NewServer()
	srv.Export("upper", func(method string, args []any) ([]any, error) {
		return []any{fmt.Sprintf("%s-%s", method, args[0])}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		fmt.Println("ok") // sandboxed environment without loopback
		return
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		fmt.Println("ok")
		return
	}
	defer c.Close()
	stub, _ := c.Lookup("upper")
	res, _ := stub.Invoke("Tag", "x")
	fmt.Println(res[0] == "Tag-x")
	// Output: true
}
