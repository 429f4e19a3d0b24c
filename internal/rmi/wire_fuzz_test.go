package rmi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// fuzzGen deterministically derives a request frame from fuzz bytes. It only
// produces shapes gob can round-trip faithfully (no nil interface elements,
// no empty slices — gob decodes those as nil), since the property under test
// is binary↔gob equivalence, not gob's own quirks.
type fuzzGen struct {
	data []byte
	off  int
}

func (g *fuzzGen) byte() byte {
	if g.off >= len(g.data) {
		return 0
	}
	b := g.data[g.off]
	g.off++
	return b
}

func (g *fuzzGen) u64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = g.byte()
	}
	return binary.LittleEndian.Uint64(b[:])
}

func (g *fuzzGen) str(max int) string {
	n := int(g.byte()) % (max + 1)
	b := make([]byte, n)
	for i := range b {
		b[i] = 'a' + g.byte()%26
	}
	return string(b)
}

func (g *fuzzGen) value(depth int) any {
	kind := g.byte() % 13
	if depth > 0 && kind == 10 {
		kind = g.byte() % 10 // nested lists only one level deep
	}
	switch kind {
	case 0:
		return g.byte()%2 == 0
	case 1:
		return int(int64(g.u64()))
	case 2:
		return int32(uint32(g.u64()))
	case 3:
		return int64(g.u64())
	case 4:
		f := math.Float64frombits(g.u64())
		if math.IsNaN(f) {
			f = 0.5 // NaN != NaN would fail DeepEqual for the wrong reason
		}
		return f
	case 5:
		return g.str(12)
	case 6:
		n := 1 + int(g.byte())%8
		b := make([]byte, n)
		for i := range b {
			b[i] = g.byte()
		}
		return b
	case 7:
		n := 1 + int(g.byte())%16
		v := make([]int32, n)
		for i := range v {
			v[i] = int32(uint32(g.u64()))
		}
		return v
	case 8:
		n := 1 + int(g.byte())%8
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(g.u64())
		}
		return v
	case 9:
		return g.floats(1 + int(g.byte())%8)
	case 10:
		n := 1 + int(g.byte())%3
		v := make([]any, n)
		for i := range v {
			v[i] = g.value(depth + 1)
		}
		return v
	case 11: // a registered slice type: rides vNamed
		return wFrame(g.floats(1 + int(g.byte())%8))
	default: // a registered slice of slices; a nil element is one gob keeps
		v := make([]wFrame, 1+int(g.byte())%3)
		for i := range v {
			if n := int(g.byte()) % 5; n > 0 {
				v[i] = wFrame(g.floats(n))
			}
		}
		return v
	}
}

func (g *fuzzGen) floats(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		f := math.Float64frombits(g.u64())
		if math.IsNaN(f) {
			f = float64(i)
		}
		v[i] = f
	}
	return v
}

func (g *fuzzGen) request() *request {
	flags := g.byte()
	req := &request{
		Object: g.str(16),
		Method: g.str(16),
		OneWay: flags&1 != 0,
		Hello:  flags&2 != 0,
	}
	if flags&4 != 0 {
		req.Client = g.str(16)
		req.Seq = g.u64()
		req.Epoch = int64(g.u64())
	}
	if flags&8 != 0 {
		req.Stream = uint32(g.u64())
	}
	if nargs := int(g.byte()) % 5; nargs > 0 {
		req.Args = make([]any, nargs)
		for i := range req.Args {
			req.Args[i] = g.value(0)
		}
	}
	return req
}

func (g *fuzzGen) response() *response {
	flags := g.byte()
	resp := &response{
		Bound: flags&1 != 0,
		Stale: flags&4 != 0,
	}
	if flags&8 != 0 {
		resp.Err = g.str(24)
	}
	if flags&16 != 0 {
		resp.Epoch = int64(g.u64())
	}
	if flags&64 != 0 {
		resp.Stream = uint32(g.u64())
	}
	if n := int(g.byte()) % 4; n > 0 {
		resp.Results = make([]any, n)
		for i := range resp.Results {
			resp.Results[i] = g.value(0)
		}
	}
	return resp
}

// FuzzBinaryGobEquivalence drives both codecs over generated frame shapes
// covering every Class.Wire payload type — the registered slice types
// included — and asserts three properties: the
// binary codec round-trips losslessly, gob round-trips losslessly, and both
// decode to identical Go values — the invariant that lets a client pick
// either codec without changing observable behaviour.
func FuzzBinaryGobEquivalence(f *testing.F) {
	registerWireTestTypes()
	f.Add([]byte{})
	// One argument each of kind 11 (wFrame) and 12 ([]wFrame, nil element).
	f.Add([]byte{0, 0, 0, 2, 11, 1, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f, 1, 2, 3, 4, 5, 6, 7, 0x40, 12, 1, 0, 2, 9, 8, 7, 6, 5, 4, 3, 0xc0})
	f.Add([]byte{0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte("the quick brown fox jumps over the lazy dog 0123456789"))
	f.Add(bytes.Repeat([]byte{7, 0, 255, 128, 64, 33}, 16))
	seed := make([]byte, 96)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &fuzzGen{data: data}
		req := g.request()
		resp := g.response()

		checkReq := func(c Codec, label string) *request {
			var buf bytes.Buffer
			bw := bufio.NewWriter(&buf)
			if err := c.newEncoder(bw).EncodeRequest(req); err != nil {
				t.Fatalf("%s encode request: %v", label, err)
			}
			bw.Flush()
			var out request
			if err := c.newDecoder(bufio.NewReader(&buf)).DecodeRequest(&out); err != nil {
				t.Fatalf("%s decode request: %v", label, err)
			}
			if !reflect.DeepEqual(req, &out) {
				t.Fatalf("%s request round trip:\n in: %#v\nout: %#v", label, req, &out)
			}
			return &out
		}
		binReq := checkReq(BinaryCodec(), "binary")
		gobReq := checkReq(GobCodec(), "gob")
		if !reflect.DeepEqual(binReq, gobReq) {
			t.Fatalf("codec divergence on request:\nbinary: %#v\ngob: %#v", binReq, gobReq)
		}

		checkResp := func(c Codec, label string) *response {
			var buf bytes.Buffer
			bw := bufio.NewWriter(&buf)
			if err := c.newEncoder(bw).EncodeResponse(resp); err != nil {
				t.Fatalf("%s encode response: %v", label, err)
			}
			bw.Flush()
			var out response
			if err := c.newDecoder(bufio.NewReader(&buf)).DecodeResponse(&out); err != nil {
				t.Fatalf("%s decode response: %v", label, err)
			}
			if !reflect.DeepEqual(resp, &out) {
				t.Fatalf("%s response round trip:\n in: %#v\nout: %#v", label, resp, &out)
			}
			return &out
		}
		binResp := checkResp(BinaryCodec(), "binary")
		gobResp := checkResp(GobCodec(), "gob")
		if !reflect.DeepEqual(binResp, gobResp) {
			t.Fatalf("codec divergence on response:\nbinary: %#v\ngob: %#v", binResp, gobResp)
		}
	})
}

// bulkSeed is a robustness seed around a frame longer than the connection's
// read buffer, one a decoder streams, and the outcome of decoding its frames
// as requests in turn: true for a frame that decodes, false for an error.
type bulkSeed struct {
	why  string
	data []byte
	want []bool
}

func bulkSeeds() []bulkSeed {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	BinaryCodec().newEncoder(bw).EncodeRequest(&request{Object: "PS1", Method: "Sieve", Args: []any{"x", ramp[int32](8192), ramp[float64](2049)}})
	bw.Flush()
	good := buf.Bytes()
	_, n := binary.Uvarint(good)
	body := good[n:]
	reframe := func(size int, body []byte) []byte {
		return append(binary.AppendUvarint(nil, uint64(size)), body...)
	}
	// Kind, flags, object, method and the argument count take 13 bytes; the
	// first argument's tag follows.
	badTag := bytes.Clone(body)
	badTag[13] = 0x7f
	overCount := requestFrame(append(append([]byte{vInt32s}, binary.AppendUvarint(nil, 1<<20)...), make([]byte, 20_000)...)...)
	// 16 MiB declared, 8 Mi arguments counted, 20,000 sent (nils).
	bareCount := binary.AppendUvarint(append(binary.AppendUvarint(nil, 1<<24), bkRequest, frArgs, 0, 0), 1<<23)
	bareCount = append(bareCount, make([]byte, 20_000)...)
	return []bulkSeed{
		{"truncated mid-array", good[:len(good)/2], []bool{false}},
		{"element count past the frame's end", overCount, []bool{false}},
		{"a list count the bytes do not back", bareCount, []bool{false}},
		{"length prefix shorter than the values", reframe(len(body)-100, body), []bool{false}},
		{"trailing bytes after the last value", reframe(len(body)+7, append(bytes.Clone(body), 1, 2, 3, 4, 5, 6, 7)), []bool{true}},
		{"a good frame behind a bad one", append(reframe(len(body), badTag), good...), []bool{false, true}},
	}
}

// FuzzBinaryDecodeRobustness throws raw bytes at the binary decoder: any
// input must produce a value or an error, never a panic, and never an
// allocation out of proportion to the frames' declared lengths (the frame cap
// and per-value bounds checks). The bytes are decoded three ways: read whole,
// streamed through connection-sized windows and streamed through 16-byte
// ones; frame by frame, all three must fail or all decode to the same value.
func FuzzBinaryDecodeRobustness(f *testing.F) {
	registerWireTestTypes()
	f.Add(requestFrame(named(wFrameName, vFloat64s, 1, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f)...))
	f.Add(requestFrame(named("[]rmi.wFrame", vAnys, 2, vFloat64s, 0, vFloat64s, 1, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f)...))
	f.Add(requestFrame(named(wFrameName, vInt32s, 1, 1, 0, 0, 0)...))
	// Seed with a valid frame so mutations explore near-valid space.
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	enc := BinaryCodec().newEncoder(bw)
	enc.EncodeRequest(&request{Object: "PS1", Method: "Sieve", Args: []any{[]int32{2, 3, 5}, "x", true}})
	bw.Flush()
	f.Add(buf.Bytes())
	buf.Reset()
	bw = bufio.NewWriter(&buf)
	enc = BinaryCodec().newEncoder(bw)
	enc.EncodeResponse(&response{Results: []any{int64(-1), []float64{1.5}}, Bound: true})
	bw.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte{})
	for _, seed := range bulkSeeds() {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// What the frames declare, up to the cap a decoder enforces.
		declared := 0
		for rest := data; len(rest) > 0; {
			size, n := binary.Uvarint(rest)
			if n <= 0 || size > maxFrame {
				break
			}
			declared += int(size)
			rest = rest[min(uint64(len(rest)), uint64(n)+size):]
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, resp := range []bool{false, true} {
			var decs [3]frameDecoder
			for i, size := range []int{max(16, len(data)), connBufSize, 16} {
				decs[i] = BinaryCodec().newDecoder(bufio.NewReaderSize(bytes.NewReader(data), size))
			}
			for frame := 0; frame < 4; frame++ {
				var got [3]any
				var errs [3]error
				for i, dec := range decs {
					if resp {
						var r response
						errs[i], got[i] = dec.DecodeResponse(&r), &r
					} else {
						var r request
						errs[i], got[i] = dec.DecodeRequest(&r), &r
					}
				}
				for i := 1; i < 3; i++ {
					if (errs[i] == nil) != (errs[0] == nil) {
						t.Fatalf("frame %d: read whole: %v; streamed (decoder %d): %v", frame, errs[0], i, errs[i])
					}
					// %#v where DeepEqual fails: it tells NaN from NaN apart.
					if errs[0] == nil && !reflect.DeepEqual(got[i], got[0]) && fmt.Sprintf("%#v", got[i]) != fmt.Sprintf("%#v", got[0]) {
						t.Fatalf("frame %d: read whole %#v, streamed (decoder %d) %#v", frame, got[0], i, got[i])
					}
				}
				if errors.Is(errs[0], io.EOF) {
					break
				}
			}
		}
		runtime.ReadMemStats(&after)
		// Each of the six decodes may allocate what the frames declare, once;
		// anything more must be backed by bytes the input holds.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(6*declared+64*len(data)+1<<20); alloc > limit {
			t.Fatalf("decoding %d bytes declaring %d allocated %d bytes, limit %d", len(data), declared, alloc, limit)
		}
	})
}
