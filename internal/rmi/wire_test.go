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

// TestBinaryArraysRoundTripAtEveryOffset sends every array tag and every
// registered shape at lengths 0, 1, odd and 65,536, behind a string of 0–7
// bytes so the array's bytes start at every alignment within the frame, and
// decodes two frames with one decoder: the values of the first must survive
// the second reusing the frame buffer.
func TestBinaryArraysRoundTripAtEveryOffset(t *testing.T) {
	registerWireTestTypes()
	for _, n := range []int{0, 1, 7, 65_536} {
		for pad := 0; pad < 8; pad++ {
			var buf bytes.Buffer
			bw := bufio.NewWriter(&buf)
			enc := BinaryCodec().newEncoder(bw)
			in := &request{Object: "o", Method: "m", Args: append([]any{strings.Repeat("p", pad)}, sizedCases(n)...)}
			if err := enc.EncodeRequest(in); err != nil {
				t.Fatal(err)
			}
			// Longer, with other contents: it overwrites the buffer bytes the
			// first frame was parsed from.
			if err := enc.EncodeRequest(&request{Object: "o", Method: "m", Args: append([]any{strings.Repeat("q", pad)}, sizedCases(n + 1)[:8]...)}); err != nil {
				t.Fatal(err)
			}
			bw.Flush()
			dec := BinaryCodec().newDecoder(bufio.NewReader(&buf))
			var first, second request
			if err := dec.DecodeRequest(&first); err != nil {
				t.Fatalf("n=%d pad=%d: %v", n, pad, err)
			}
			if err := dec.DecodeRequest(&second); err != nil {
				t.Fatalf("n=%d pad=%d second frame: %v", n, pad, err)
			}
			for i, want := range in.Args {
				if want = asDecoded(want); !reflect.DeepEqual(first.Args[i], want) {
					t.Fatalf("n=%d pad=%d arg %d (%T) did not survive the round trip and the buffer's reuse: got %T len %d",
						n, pad, i, want, first.Args[i], reflect.ValueOf(first.Args[i]).Len())
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
