package rmi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
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
// decode to identical Go values — the invariant that lets a mixed cluster
// fall back between codecs without changing observable behaviour.
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

// FuzzBinaryDecodeRobustness throws raw bytes at the binary decoder: any
// input must produce a value or an error, never a panic or a runaway
// allocation (the frame cap and per-value bounds checks).
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
	f.Fuzz(func(t *testing.T, data []byte) {
		var req request
		BinaryCodec().newDecoder(bufio.NewReader(bytes.NewReader(data))).DecodeRequest(&req)
		var resp response
		BinaryCodec().newDecoder(bufio.NewReader(bytes.NewReader(data))).DecodeResponse(&resp)
	})
}
