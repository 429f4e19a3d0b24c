package rmi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	one "aspectpar/internal/rmi/testdata/one/twin"
	two "aspectpar/internal/rmi/testdata/two/twin"
)

// The registered slice types of these tests: the shapes imagepipe ships
// (Frame, []Frame) plus one per remaining fast-path element type.
type (
	wFrame []float64
	wPack  []int32
	wLong  []int64
	wBlob  []byte
)

// wFrameName is the name wFrame crosses the wire under: gob's, the full
// import path. An unnamed type ([]wFrame) goes by its spelling.
const wFrameName = "aspectpar/internal/rmi.wFrame"

func registerWireTestTypes() {
	for _, v := range []any{wFrame(nil), []wFrame(nil), wPack(nil), wLong(nil), wBlob(nil), [][]int32(nil)} {
		RegisterType(v)
	}
}

// ramp fills n elements with values that differ in every byte position, so a
// shifted or byte-swapped copy cannot pass for the original.
func ramp[T int32 | int64 | float64 | byte](n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = T(i*7+3) - T(n/2)
	}
	return out
}

// sizedCases returns one value per array tag and per registered shape, each of
// length n.
func sizedCases(n int) []any {
	frames := make([]wFrame, 3)
	for i := range frames {
		frames[i] = wFrame(ramp[float64](n + i))
	}
	return []any{
		ramp[byte](n), ramp[int32](n), ramp[int64](n), ramp[float64](n),
		wBlob(ramp[byte](n)), wPack(ramp[int32](n)), wLong(ramp[int64](n)), wFrame(ramp[float64](n)),
		frames, [][]int32{ramp[int32](n), ramp[int32](1)},
	}
}

// asDecoded is what a round trip is expected to hand back for v: a
// zero-length plain array comes back empty (a []byte nil — both as before), a
// zero-length value or element of a registered type comes back nil — gob's
// rule, which those types followed on the vGob path.
func asDecoded(v any) any {
	rv := reflect.ValueOf(v)
	if namedTypeOf(rv.Type()) == nil {
		if rv.Kind() != reflect.Slice || rv.Len() > 0 {
			return v
		}
		if _, isBytes := v.([]byte); isBytes {
			return []byte(nil)
		}
		return reflect.MakeSlice(rv.Type(), 0, 0).Interface()
	}
	if rv.Len() == 0 {
		return reflect.Zero(rv.Type()).Interface()
	}
	if rv.Type().Elem().Kind() != reflect.Slice {
		return v
	}
	out := reflect.MakeSlice(rv.Type(), rv.Len(), rv.Len())
	for i := 0; i < rv.Len(); i++ {
		if rv.Index(i).Len() > 0 {
			out.Index(i).Set(rv.Index(i))
		}
	}
	return out.Interface()
}

// encodeFrames encodes requests and responses back to back on one binary
// encoder with connection-sized buffers, into a buffer of room bytes to start
// with. With writev set the encoder is given the writer under its bufio
// buffer, so an array of connBufSize bytes or more leaves by the vectored
// write; without, every array is copied into the frame.
func encodeFrames(t *testing.T, writev bool, frames []any, room int) []byte {
	t.Helper()
	buf := bytes.NewBuffer(make([]byte, 0, room))
	bw := bufio.NewWriterSize(buf, connBufSize)
	enc := BinaryCodec().newEncoder(bw).(*binEncoder)
	if writev {
		enc.conn = buf
	}
	for _, f := range frames {
		var err error
		switch f := f.(type) {
		case *request:
			err = enc.EncodeRequest(f)
		case *response:
			err = enc.EncodeResponse(f)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(enc.bulks) != 0 {
			t.Fatal("the encoder kept references to a frame's arrays after Encode")
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeFrames decodes frames like the given ones from stream on one decoder
// whose read buffer holds size bytes: frames longer than that are streamed.
func decodeFrames(t *testing.T, stream []byte, size int, like []any) []any {
	t.Helper()
	dec := BinaryCodec().newDecoder(bufio.NewReaderSize(bytes.NewReader(stream), size))
	out := make([]any, len(like))
	for i, f := range like {
		var err error
		switch f.(type) {
		case *request:
			var r request
			err, out[i] = dec.DecodeRequest(&r), &r
		case *response:
			var r response
			err, out[i] = dec.DecodeResponse(&r), &r
		}
		if err != nil {
			t.Fatalf("frame %d of %d, read buffer %d: %v", i, len(like), size, err)
		}
	}
	return out
}

// placed returns v as the first, a middle or the last of three arguments.
func placed(v any, at int) []any {
	args := []any{"f", int64(-2)}
	return append(args[:at:at], append([]any{v}, args[at:]...)...)
}

// ledgerReply is the shape of imagepipe's terminal-stage read: stamp, cursor,
// ids and 40 frames of 256 samples, 80 KiB in all and no array a bulk one.
func ledgerReply(pad int) *response {
	ids, frames := ramp[int64](40), make([]wFrame, 40)
	for i := range frames {
		frames[i] = wFrame(ramp[float64](256 + i))
	}
	return &response{Err: strings.Repeat("e", pad), Results: []any{int64(7), int64(40), ids, frames}}
}

// TestBinaryArraysRoundTripAtEveryOffset sends every array tag and every
// registered shape at lengths 0, 1, odd, either side of the connection
// buffer's 16 KiB (4,096 int32s, 2,048 float64s) and 65,536, as the first, a
// middle and the last argument and all in one frame, behind 0–7 bytes of
// padding so the array's bytes start at every alignment within the frame,
// with an imagepipe ledger reply among them. Every frame must encode to the
// same bytes by the copy path and the vectored write, and decode to the same
// values read whole, streamed through connection-sized windows and streamed
// through 16-byte ones: values that encode back to the same bytes, and, at
// the short lengths where the nil rule shows, the values that were sent. Each
// run goes back to back through one decoder, and is checked once all of it is
// decoded: the values of every frame must survive the frames after it reusing
// the decoder's buffers.
func TestBinaryArraysRoundTripAtEveryOffset(t *testing.T) {
	registerWireTestTypes()
	for _, n := range []int{0, 1, 7, 2047, 2048, 2049, 4095, 4096, 4097, 65_536} {
		cases := sizedCases(n)
		for pad := 0; pad < 8; pad++ {
			obj := strings.Repeat("p", pad)
			frames := []any{&request{Object: obj, Method: "m", Args: cases}, ledgerReply(pad)}
			for _, v := range []any{cases[1], cases[2], cases[3], cases[7]} { // each fixed-width type, a registered slice
				for at := 0; at < 3; at++ {
					frames = append(frames, &request{Object: obj, Method: "m", Args: placed(v, at)})
				}
			}
			stream := encodeFrames(t, false, frames, 0)
			if !bytes.Equal(encodeFrames(t, true, frames, len(stream)), stream) {
				t.Fatalf("n=%d pad=%d: the vectored write and the copy path put different bytes on the wire", n, pad)
			}
			sizes := []int{len(stream), connBufSize, 16}
			if n > connBufSize {
				sizes = sizes[:2] // tiny windows only move the headers, which the shorter arrays cover
			}
			for _, size := range sizes {
				decoded := decodeFrames(t, stream, size, frames)
				if !bytes.Equal(encodeFrames(t, false, decoded, len(stream)), stream) {
					t.Fatalf("n=%d pad=%d read buffer %d: the decoded frames encode to other bytes", n, pad, size)
				}
				for i, got := range decoded {
					if n > 7 {
						break // DeepEqual is slow on long arrays; the bytes above have checked them
					}
					want := frames[i]
					switch f := want.(type) {
					case *request:
						want = &request{Object: f.Object, Method: f.Method, Args: decodedValues(f.Args)}
					case *response:
						want = &response{Err: f.Err, Results: decodedValues(f.Results)}
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d pad=%d read buffer %d: frame %d did not survive the round trip and the buffers' reuse", n, pad, size, i)
					}
				}
			}
		}
	}
}

func decodedValues(vs []any) []any {
	out := make([]any, len(vs))
	for i, v := range vs {
		out[i] = asDecoded(v)
	}
	return out
}

// TestBinaryDecoderStreamsBadFrames decodes the bulk robustness seeds read
// whole and streamed: each bad frame is an error either way, and the decoder
// is left at the next frame, which decodes.
func TestBinaryDecoderStreamsBadFrames(t *testing.T) {
	for _, seed := range bulkSeeds() {
		for _, size := range []int{len(seed.data), connBufSize, 16} {
			dec := BinaryCodec().newDecoder(bufio.NewReaderSize(bytes.NewReader(seed.data), size))
			for i, ok := range seed.want {
				var req request
				if err := dec.DecodeRequest(&req); (err == nil) != ok {
					t.Errorf("%s, read buffer %d: frame %d decoded with error %v, want success %v", seed.why, size, i, err, ok)
				}
			}
		}
	}
}

// TestNamedSlicesKeepTheirTypeAndNilRule pins what a servant's type assertion
// relies on — a Frame sent is a Frame received — and the nil rule: a
// zero-length value of a registered type is nil on both codecs, including as
// an element.
func TestNamedSlicesKeepTheirTypeAndNilRule(t *testing.T) {
	registerWireTestTypes()
	in := &request{Object: "o", Method: "m", Args: []any{
		wFrame{1.5, -2}, wFrame(nil), wFrame{},
		[]wFrame{nil, {}, {3}}, []wFrame(nil), []wFrame{},
		wBlob("ab"), wPack{1 << 30}, wLong{-1 << 40}, [][]int32{{1}, nil},
	}}
	want := []any{
		wFrame{1.5, -2}, wFrame(nil), wFrame(nil),
		[]wFrame{nil, nil, {3}}, []wFrame(nil), []wFrame(nil),
		wBlob("ab"), wPack{1 << 30}, wLong{-1 << 40}, [][]int32{{1}, nil},
	}
	for _, c := range []Codec{BinaryCodec(), GobCodec()} {
		if got := roundTripRequest(t, c, in).Args; !reflect.DeepEqual(got, want) {
			t.Errorf("%s decoded\n %#v\nwant\n %#v", c.Name(), got, want)
		}
	}
	// And never through the gob fallback: a Frame's frame is its name, a
	// count and the samples.
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := BinaryCodec().newEncoder(bw).EncodeRequest(&request{Args: []any{wFrame{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	if max := 8 + len(wFrameName) + 2*8 + 8; buf.Len() > max {
		t.Errorf("a two-sample Frame costs %d bytes on the wire, want ≤ %d (is it riding vGob?)", buf.Len(), max)
	}
}

// requestFrame builds a request frame around hand-written value bytes: one
// argument, nothing else set.
func requestFrame(value ...byte) []byte {
	body := []byte{bkRequest, frArgs, 0, 0, 1} // kind, flags, object "", method "", one arg
	body = append(body, value...)
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

func named(name string, plain ...byte) []byte {
	return append(appendWireString([]byte{vNamed}, name), plain...)
}

// TestBinaryDecoderRejectsBadNamedValues: every way a named value can be
// wrong is a decode error — never a panic, never a value of another type.
func TestBinaryDecoderRejectsBadNamedValues(t *testing.T) {
	registerWireTestTypes()
	huge := binary.AppendUvarint(nil, 1<<40)
	for _, c := range []struct {
		why   string
		value []byte
		want  string
	}{
		{"unregistered name", named("nope.Frame", vFloat64s, 0), "not registered"},
		{"wrong underlying kind", named(wFrameName, vInt32s, 1, 1, 0, 0, 0), "want []float64"},
		{"scalar under a name", named(wFrameName, vTrue), "want []float64"},
		{"nil under a name", named(wFrameName, vNil), "want []float64"},
		{"flat value for a nested type", named("[]rmi.wFrame", vFloat64s, 0), "want a list"},
		{"wrong element kind", named("[]rmi.wFrame", vAnys, 1, vInt64s, 0), "want []float64"},
		{"named element in a nested type", named("[]rmi.wFrame", append([]byte{vAnys, 1}, named(wFrameName, vFloat64s, 0)...)...), "want []float64"},
		{"count exceeds remaining", named(wFrameName, append([]byte{vFloat64s}, huge...)...), "truncated"},
		{"plain count exceeds remaining", append([]byte{vInt32s}, huge...), "truncated"},
		{"one element short", []byte{vInt64s, 2, 1, 0, 0, 0, 0, 0, 0, 0}, "truncated"},
		{"name truncated", []byte{vNamed, 40, 'r', 'm'}, "truncated"},
		{"nothing after the name", named(wFrameName), "truncated"},
	} {
		var req request
		err := BinaryCodec().newDecoder(bufio.NewReader(bytes.NewReader(requestFrame(c.value...)))).DecodeRequest(&req)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: decode returned %v (args %#v), want an error containing %q", c.why, err, req.Args, c.want)
		}
	}
}

// TestBinaryGoldenFrames: the bytes of every tag that existed before vNamed
// are the ones the previous encoder produced (captured from it), so an old
// and a new end of one connection read each other's frames. Only new tags
// may be added under the codec name.
func TestBinaryGoldenFrames(t *testing.T) {
	const (
		goldenRequest  = "69012d020350533105536965766503632f3107050d0002010309040c050d06000000000000f83f070173080201020903ffffffff02000000000000400a02ffffffffffffffff00000000000100000b02000000000000f83f00000000000002c00c020402090103000000"
		goldenResponse = "1602d90107530165030b01000000000000e03f09000a00"
	)
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	enc := BinaryCodec().newEncoder(bw)
	if err := enc.EncodeRequest(&request{Object: "PS1", Method: "Sieve", OneWay: true, Client: "c/1", Seq: 7, Epoch: -3, Stream: 2,
		Args: []any{nil, true, false, int(-5), int32(6), int64(-7), 1.5, "s", []byte{1, 2}, []int32{-1, 2, 1 << 30}, []int64{-1, 1 << 40}, []float64{1.5, -2.25}, []any{int32(1), []int32{3}}}}); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	if got := hex.EncodeToString(buf.Bytes()); got != goldenRequest {
		t.Errorf("request frame changed:\n got %s\nwant %s", got, goldenRequest)
	}
	buf.Reset()
	if err := enc.EncodeResponse(&response{Results: []any{[]float64{0.5}, []int32{}, []int64(nil)}, Bound: true, Stream: 7, Epoch: -42, Err: "e"}); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	if got := hex.EncodeToString(buf.Bytes()); got != goldenResponse {
		t.Errorf("response frame changed:\n got %s\nwant %s", got, goldenResponse)
	}
}

// TestPortableArrayBranchIsByteIdentical forces the big-endian host's
// element loop and compares it with what this host's encoder and decoder do
// (a block copy where hostLittleEndian): same bytes out, same values back.
func TestPortableArrayBranchIsByteIdentical(t *testing.T) {
	check := func(name string, fast, portable []byte) {
		t.Helper()
		if !bytes.Equal(fast, portable) {
			t.Errorf("%s: host branch and portable branch disagree:\n%x\n%x", name, fast, portable)
		}
	}
	for _, n := range []int{0, 1, 7, 1000} {
		i32, i64, f64 := ramp[int32](n), ramp[int64](n), ramp[float64](n)
		head := binary.AppendUvarint([]byte{vNil}, uint64(n)) // a tag byte and the count, as appendFixed writes them
		check("[]int32", appendFixed(nil, vNil, i32), appendFixedPortable(bytes.Clone(head), i32))
		check("[]int64", appendFixed(nil, vNil, i64), appendFixedPortable(bytes.Clone(head), i64))
		check("[]float64", appendFixed(nil, vNil, f64), appendFixedPortable(bytes.Clone(head), f64))

		// Decode from behind that odd-sized head, the way a frame presents its arrays.
		raw32, raw64, rawF := appendFixed(nil, vNil, i32)[len(head):], appendFixed(nil, vNil, i64)[len(head):], appendFixed(nil, vNil, f64)[len(head):]
		out32, out64, outF := make([]int32, n), make([]int64, n), make([]float64, n)
		fillFixedPortable(out32, raw32)
		fillFixedPortable(out64, raw64)
		fillFixedPortable(outF, rawF)
		if !reflect.DeepEqual(out32, i32) || !reflect.DeepEqual(out64, i64) || !reflect.DeepEqual(outF, f64) {
			t.Errorf("n=%d: the portable decode loop does not invert the encoder", n)
		}
	}
}

// TestRegisterTypeShapes pins which registered types take the vNamed path:
// slices whose elements (or whose elements' elements) are exactly int32,
// int64, float64 or byte. Everything else stays on gob.
func TestRegisterTypeShapes(t *testing.T) {
	type myInt int32
	type row struct{ A int }
	registerWireTestTypes()
	for _, v := range []any{[]myInt(nil), []row(nil), row{}, map[int][]uint16(nil), []string(nil), [][]string(nil), 0, nil} {
		if v != nil && reflect.TypeOf(v).Kind() != reflect.Int {
			RegisterType(v)
		}
		if nt := namedTypeOf(reflect.TypeOf(v)); nt != nil {
			t.Errorf("%T was entered in the named-slice table as %q", v, nt.name)
		}
	}
	for _, v := range []any{[]int32(nil), []byte(nil)} {
		if namedTypeOf(reflect.TypeOf(v)) != nil {
			t.Errorf("%T has a tag of its own and must not also be a named type", v)
		}
	}
	for _, c := range []struct {
		v      any
		nested bool
	}{{wFrame(nil), false}, {wBlob(nil), false}, {[]wFrame(nil), true}, {[][]int32(nil), true}} {
		nt := namedTypeOf(reflect.TypeOf(c.v))
		if nt == nil || nt.nested != c.nested || namedTypeByName(nt.name) != nt {
			t.Errorf("%T: table entry %+v, want nested=%v and reachable by name", c.v, nt, c.nested)
		}
	}
}

// TestSameNamedTypesStayApart: two packages called twin each register a
// Frame. Both print as "twin.Frame", gob files them under their import paths,
// and so does the vNamed table: each arrives as the type that was sent.
func TestSameNamedTypesStayApart(t *testing.T) {
	RegisterType(one.Frame(nil))
	RegisterType(two.Frame(nil))
	a, b := namedTypeOf(reflect.TypeOf(one.Frame(nil))), namedTypeOf(reflect.TypeOf(two.Frame(nil)))
	if a == nil || b == nil || a == b || a.name == b.name {
		t.Fatalf("table entries %+v and %+v, want one each under different names", a, b)
	}
	in := &request{Object: "o", Method: "m", Args: []any{one.Frame{1.5}, two.Frame{7}}}
	for _, c := range []Codec{BinaryCodec(), GobCodec()} {
		if got := roundTripRequest(t, c, in).Args; !reflect.DeepEqual(got, in.Args) {
			t.Errorf("%s decoded %#v, want %#v", c.Name(), got, in.Args)
		}
	}
}
