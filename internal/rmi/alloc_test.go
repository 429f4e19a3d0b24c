package rmi

import (
	"bufio"
	"bytes"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// startEchoServer hosts one servant whose method returns its argument list
// unchanged, and returns a connected client and stub.
func startEchoServer(t *testing.T, opts ...Option) (*Client, *Stub) {
	t.Helper()
	return startServant(t, echo, opts...)
}

// startServant hosts dispatch as the object "echo" and returns a connected
// client and the object's stub.
func startServant(t *testing.T, dispatch DispatchFunc, opts ...Option) (*Client, *Stub) {
	t.Helper()
	srv := NewServer()
	srv.Export("echo", dispatch)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	client, err := Dial(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	stub, err := client.Lookup("echo")
	if err != nil {
		t.Fatal(err)
	}
	return client, stub
}

// TestSendAllocsPerWindowedCall pins the end-to-end allocation budget of one
// one-way windowed send — the NetRMI void hot path. The count is global
// (testing.AllocsPerRun reads total mallocs), so it includes the server-side
// decode and dispatch of each call; the bound is generous against gob's
// internal churn but fails if per-call frames, pending entries or buffers
// start being reallocated again. Pinned to gob: a default Dial speaks
// binary, which has its own, tighter budget below.
func TestSendAllocsPerWindowedCall(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	// A huge window: measure sends, not window stalls.
	client, stub := startEchoServer(t, WithCodec(GobCodec()))
	withWindow(client, 1<<20)
	payload := make([]int32, 512)
	if err := stub.Send("M", payload); err != nil { // warm the path
		t.Fatal(err)
	}
	if err := client.flush(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(400, func() {
		if err := stub.Send("M", payload); err != nil {
			t.Fatal(err)
		}
	})
	if err := client.flush(); err != nil {
		t.Fatal(err)
	}
	const maxAllocs = 16
	if avg > maxAllocs {
		t.Errorf("one-way windowed send allocates %.1f objects/call, budget %d", avg, maxAllocs)
	}
}

// TestBinarySendAllocsPerWindowedCall pins the same one-way hot path on the
// binary codec a default Dial speaks. The encoder assembles each frame in a pooled
// scratch buffer and the value encoding is reflection-free, so the client
// side settles at zero steady-state allocations; the budget below is global
// (it includes the server's decode — the []int32 payload copy and the args
// list are irreducible) and is deliberately tighter than the gob budget.
func TestBinarySendAllocsPerWindowedCall(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	client, stub := startEchoServer(t)
	withWindow(client, 1<<20)
	payload := make([]int32, 512)
	if err := stub.Send("M", payload); err != nil { // warm the path
		t.Fatal(err)
	}
	if err := client.flush(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(400, func() {
		if err := stub.Send("M", payload); err != nil {
			t.Fatal(err)
		}
	})
	if err := client.flush(); err != nil {
		t.Fatal(err)
	}
	// Measured 2.00 on the development machine — the server-side args list
	// and payload copy; the client's encode path is allocation-free.
	const maxAllocs = 4
	if avg > maxAllocs {
		t.Errorf("binary one-way windowed send allocates %.1f objects/call, budget %d", avg, maxAllocs)
	}
}

// TestInvokeCBAllocsPerCall pins the allocation budget of one non-void
// windowed call through the callback delivery path (request, response,
// delivery — no future, no per-call goroutine), on gob: the budget is gob's.
func TestInvokeCBAllocsPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	_, stub := startEchoServer(t, WithCodec(GobCodec()))
	payload := make([]int32, 512)
	ready := make(chan struct{}, 1)
	call := func() {
		stub.invokeCB("M", func([]any, error) { ready <- struct{}{} }, payload)
		<-ready
	}
	call() // warm the path
	avg := testing.AllocsPerRun(400, call)
	const maxAllocs = 48
	if avg > maxAllocs {
		t.Errorf("windowed call allocates %.1f objects/call, budget %d", avg, maxAllocs)
	}
}

// TestBinaryInvokeCBAllocsPerCall pins the same windowed call on the binary
// codec a default Dial speaks, whole process: the client's pending entry
// and request frame, the server's request frame and reply record are all
// recycled and the header's names interned, so what is left is what the
// caller and the servant get to keep — the argument list the server decodes
// (list, pack, its box) and the result list the client decodes (the same
// three: the servant echoes).
func TestBinaryInvokeCBAllocsPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	_, stub := startEchoServer(t)
	args := []any{make([]int32, 16)}
	ready := make(chan struct{}, 1)
	deliver := func([]any, error) { ready <- struct{}{} }
	stub = stub.OnStream(1)
	call := func() {
		stub.invokeCB("M", deliver, args...)
		<-ready
	}
	call() // warm the path
	avg := testing.AllocsPerRun(1000, call)
	const maxAllocs = 7 // measured 6.00: the two decoded lists above
	t.Logf("binary windowed call: %.2f allocations", avg)
	if avg > maxAllocs {
		t.Errorf("binary windowed call allocates %.1f objects/call, budget %d", avg, maxAllocs)
	}
}

// TestBinaryInvokeSeqAllocsPerCall is the session-tracked form the call
// journal uses: on top of the untracked call, the server's dedupe session
// keeps the reply (its own record, not the lane's) and an in-progress marker
// per request.
func TestBinaryInvokeSeqAllocsPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	_, stub := startEchoServer(t, WithSession("alloc-test"))
	stub = stub.OnStream(1)
	args := []any{make([]int32, 16)}
	ready := make(chan struct{}, 1)
	sink := sinkFunc(func([]any, error) { ready <- struct{}{} })
	var seq uint64
	call := func() {
		seq++
		stub.InvokeSeq("M", seq, sink, args...)
		<-ready
	}
	call() // warm the path
	avg := testing.AllocsPerRun(1000, call)
	const maxAllocs = 9 // measured 8.00: six as above, the kept reply, the marker
	t.Logf("tracked binary windowed call: %.2f allocations", avg)
	if avg > maxAllocs {
		t.Errorf("tracked binary windowed call allocates %.1f objects/call, budget %d", avg, maxAllocs)
	}
}

// TestInvokeCBDeliversExactlyOnce pins the callback path's delivery
// contract across a peer crash: a send failure after the pending entry was
// enqueued reaches it through Client.fail's drain and also comes back as
// post's error, and a call posted after the crash never makes the FIFO at
// all — every call delivers exactly one outcome, never zero, never two.
func TestInvokeCBDeliversExactlyOnce(t *testing.T) {
	srv := NewServer()
	srv.Export("echo", func(method string, args []any) ([]any, error) {
		return args, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	stub, err := client.Lookup("echo")
	if err != nil {
		t.Fatal(err)
	}
	var calls, deliveries atomic.Int64
	payload := make([]int32, 64)
	for i := 0; i < 200; i++ {
		if i == 50 {
			srv.abort() // crash the peer mid-stream
		}
		calls.Add(1)
		stub.invokeCB("M", func([]any, error) { deliveries.Add(1) }, payload)
	}
	deadline := time.Now().Add(5 * time.Second)
	for deliveries.Load() < calls.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d, c := deliveries.Load(), calls.Load(); d != c {
		t.Errorf("%d deliveries for %d calls (want exactly one each)", d, c)
	}
}

// codecLoop pushes one request through the binary frame encoder and decoder,
// both reused across calls the way a connection reuses them: connBufSize
// buffers, and the encoder given the writer under its bufio buffer, so a bulk
// array leaves by the vectored write and a long frame is read streamed.
type codecLoop struct {
	buf bytes.Buffer
	bw  *bufio.Writer
	enc *binEncoder
	dec *binDecoder
}

func newCodecLoop() *codecLoop {
	l := &codecLoop{}
	l.bw = bufio.NewWriterSize(&l.buf, connBufSize)
	l.enc = BinaryCodec().newEncoder(l.bw).(*binEncoder)
	l.enc.conn = &l.buf
	l.dec = BinaryCodec().newDecoder(bufio.NewReaderSize(&l.buf, connBufSize)).(*binDecoder)
	return l
}

func (l *codecLoop) roundTrip(tb testing.TB, req *request) []any {
	if err := l.enc.EncodeRequest(req); err != nil {
		tb.Fatal(err)
	}
	if err := l.bw.Flush(); err != nil {
		tb.Fatal(err)
	}
	var out request
	if err := l.dec.DecodeRequest(&out); err != nil {
		tb.Fatal(err)
	}
	return out.Args
}

// TestNamedSliceAllocsPerDecode pins the cost of the vNamed path against the
// plain array it wraps: a registered []float64 type may allocate what a
// []float64 does (the args list, the samples, the interface box) plus a small
// constant for the name and the conversion — not gob's dozens per value.
func TestNamedSliceAllocsPerDecode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	registerWireTestTypes()
	samples := ramp[float64](256)
	measure := func(arg any) float64 {
		l := newCodecLoop()
		req := &request{Object: "stage", Method: "Ingest", Args: []any{arg}}
		l.roundTrip(t, req) // grow the buffers
		return testing.AllocsPerRun(200, func() { l.roundTrip(t, req) })
	}
	plain, named := measure(samples), measure(wFrame(samples))
	const extra = 2 // measured 1: the name string
	if named > plain+extra {
		t.Errorf("a registered []float64 type costs %.1f allocations per encode+decode, the plain slice %.1f: budget is plain + %d", named, plain, extra)
	}
	if _, ok := newCodecLoop().roundTrip(t, &request{Args: []any{wFrame(samples)}})[0].(wFrame); !ok {
		t.Error("the frame did not come back as its registered type")
	}
}

// TestBulkFrameAllocs pins the copies a bulk array no longer costs, as sizes:
// a 1 MiB []int32 request leaves the encoder's scratch buffer under
// connBufSize (the array goes out from its own memory, not through the
// buffer); a 256 KiB array's encode and decode allocate its payload once and
// little else (the decoded slice — no frame-sized buffer, no second copy);
// and the decoder's frame buffer never outgrows the connection's read buffer.
func TestBulkFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	l := newCodecLoop()
	for _, n := range []int{connBufSize / 4, 1 << 18} { // from exactly a buffer's worth to 1 MiB
		l.roundTrip(t, &request{Object: "o", Method: "m", Args: []any{make([]int32, n)}})
		if cap(l.enc.buf) >= connBufSize {
			t.Errorf("encoding %d int32s grew the encoder's scratch buffer to %d bytes, want < %d", n, cap(l.enc.buf), connBufSize)
		}
	}
	payload := ramp[int32](1 << 16)
	req := &request{Object: "o", Method: "m", Args: []any{payload}}
	l.roundTrip(t, req)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sinkArgs = l.roundTrip(t, req)
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("256 KiB array, encode + decode: %d B/op", perOp)
	if limit := uint64(4*len(payload)) + 1<<10; perOp > limit {
		t.Errorf("a 256 KiB array's encode + decode allocates %d B/op, want at most the payload + 1 KiB (%d)", perOp, limit)
	}
	if !reflect.DeepEqual(sinkArgs[0], payload) {
		t.Error("the array did not survive the round trip")
	}
	if cap(l.dec.buf) > connBufSize {
		t.Errorf("the decoder's frame buffer grew to %d bytes, want at most %d", cap(l.dec.buf), connBufSize)
	}
}

var sinkArgs []any

// BenchmarkBinaryCodecBulk measures encode+decode through the frame encoder
// and decoder for the two payloads the wall-clock benchmark moves: a 65,536 ×
// int32 pack (call-bulk, a block copy each way) and a 256-sample registered
// []float64 type (stream-frames, the vNamed path).
func BenchmarkBinaryCodecBulk(b *testing.B) {
	registerWireTestTypes()
	for _, c := range []struct {
		name  string
		arg   any
		bytes int64
	}{
		{"int32x65536", ramp[int32](65_536), 4 * 65_536},
		{"frame256", wFrame(ramp[float64](256)), 8 * 256},
	} {
		b.Run(c.name, func(b *testing.B) {
			l := newCodecLoop()
			req := &request{Object: "o", Method: "m", Args: []any{c.arg}}
			l.roundTrip(b, req)
			b.SetBytes(c.bytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkArgs = l.roundTrip(b, req)
			}
		})
	}
}

// requestFrameBytes is the steady-state size of one request frame on codec:
// the same request encoded twice on one encoder, the second measured, so
// gob's one-off type descriptors are not charged to the call.
func requestFrameBytes(t *testing.T, codec Codec, req *request) int {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	enc := codec.newEncoder(bw)
	size := 0
	for i := 0; i < 2; i++ {
		before := buf.Len()
		if err := enc.EncodeRequest(req); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		size = buf.Len() - before
	}
	return size
}

// TestBinaryCallCheaperThanGob pins, for one windowed call of 512 int32s,
// what the binary codec buys over gob on any machine: a smaller request frame
// and no more allocations per call (whole process: driver, transport, node).
// Measured: frames of 2,064 B binary against 2,590 B gob, and 8.00 against
// 21.00 allocations. The values span the whole int32 range on purpose: gob
// writes integers as varints, so a ramp of small values (0..511) packs into
// 1,380 B under gob against binary's fixed-width 2,064 B.
func TestBinaryCallCheaperThanGob(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	payload := make([]int32, 512)
	for i := range payload {
		payload[i] = int32(uint32(i) * 0x9E3779B1) // spread over the whole int32 range
	}
	req := &request{Object: "echo", Method: "M", Args: []any{payload}, Stream: 1}
	binBytes, gobBytes := requestFrameBytes(t, BinaryCodec(), req), requestFrameBytes(t, GobCodec(), req)

	perCall := func(stub *Stub) float64 {
		ready := make(chan struct{}, 1)
		deliver := func([]any, error) { ready <- struct{}{} }
		call := func() {
			stub.invokeCB("M", deliver, payload)
			<-ready
		}
		call() // warm the path
		return testing.AllocsPerRun(400, call)
	}
	_, binStub := startEchoServer(t)
	_, gobStub := startEchoServer(t, WithCodec(GobCodec()))
	binAllocs, gobAllocs := perCall(binStub.OnStream(1)), perCall(gobStub)

	t.Logf("512 x int32 request frame: binary %d B, gob %d B; allocations per call: binary %.2f, gob %.2f",
		binBytes, gobBytes, binAllocs, gobAllocs)
	if binBytes >= gobBytes {
		t.Errorf("binary request frame is %d B, gob's %d B: want strictly smaller", binBytes, gobBytes)
	}
	if binAllocs > gobAllocs {
		t.Errorf("binary call allocates %.2f objects, gob %.2f: want no more", binAllocs, gobAllocs)
	}
}
