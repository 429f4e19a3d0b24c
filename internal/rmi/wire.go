package rmi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"sync"
)

// The binary wire format. Each frame is
//
//	uvarint bodyLen | body
//
// and the body opens with a kind byte (request or response) followed by a
// flags uvarint that says which fields follow — absent fields cost zero
// bytes, so the windowed one-way hot path (object, method, one []int32 pack)
// is a few dozen bytes where gob spends hundreds and re-describes types per
// connection. Values are type-tagged: the Class.Wire payload types get
// dedicated tags with fixed-width little-endian element encoding, a slice
// type registered through RegisterType (a named []float64 like
// imagepipe.Frame, or a slice of such slices) travels as its registered name
// in front of that same encoding (vNamed) and comes back as the same concrete
// type, and everything else — structs, maps — rides an embedded gob blob
// (vGob), so any type RegisterType can make gob-encodable still crosses the
// binary codec.
//
// The fixed-width arrays are the host's own memory layout on a little-endian
// machine, so there an array crosses as one block. A small one is copied into
// the frame and out of it. One that fills a connection buffer (connBufSize)
// leaves from the sender's slice, in one vectored write with the rest of its
// frame, and all of it past the receiver's read window is read from the
// connection straight into the slice the decoder returns. A big-endian host (hostLittleEndian, a constant) takes the element-by-element
// loop that produces the same bytes.
//
// The format is self-describing at the value level but NOT versioned beyond
// the codec's tag, a connection's first byte. Value tags are append-only: a
// new tag may be added under the same codec, because a decoder that does not
// know it rejects the frame with an error instead of misreading it; changing
// the layout behind a tag, or reusing one, means introducing a new codec with
// a connection tag of its own.

const (
	bkRequest  = 0x01
	bkResponse = 0x02
)

// request flag bits.
const (
	frOneWay  = 1 << 0
	frHello   = 1 << 1
	frTracked = 1 << 2 // Client/Seq/Epoch present
	frStream  = 1 << 3
	frArgs    = 1 << 5 // argument list present (distinguishes nil from empty)
)

// response flag bits.
const (
	rfBound   = 1 << 0
	rfStale   = 1 << 2
	rfErr     = 1 << 3
	rfEpoch   = 1 << 4
	rfResults = 1 << 6
	rfStream  = 1 << 7
)

// value tags.
const (
	vNil      = 0x00
	vFalse    = 0x01
	vTrue     = 0x02
	vInt      = 0x03 // zigzag varint, decodes as int
	vInt32    = 0x04 // zigzag varint, decodes as int32
	vInt64    = 0x05 // zigzag varint, decodes as int64
	vFloat64  = 0x06 // 8-byte LE IEEE 754
	vString   = 0x07 // uvarint len + bytes
	vBytes    = 0x08 // uvarint len + bytes
	vInt32s   = 0x09 // uvarint count + 4-byte LE each
	vInt64s   = 0x0a // uvarint count + 8-byte LE each
	vFloat64s = 0x0b // uvarint count + 8-byte LE each
	vAnys     = 0x0c // uvarint count + nested values
	vGob      = 0x0d // uvarint len + standalone gob stream of gobValue
	vNamed    = 0x0e // registered type name (string) + the value's plain form
)

// frameHeadroom is the room kept at the front of the encoder's scratch buffer
// for the length prefix, so prefix and body leave in one Write.
const frameHeadroom = binary.MaxVarintLen64

// maxFrame bounds a frame a decoder will buffer: a corrupt or hostile length
// prefix must not translate into an arbitrary allocation.
const maxFrame = 1 << 28

var errFrameTruncated = errors.New("rmi: binary frame truncated")

func appendWireString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendZigzag varint-encodes a signed value with the zigzag mapping, so
// small negative numbers stay small on the wire.
func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

// gobValue carries one exotic value through the vGob fallback; the concrete
// type must be registered (RegisterType), same as under the gob codec.
type gobValue struct{ V any }

type binCodec struct{}

func (binCodec) Name() string { return binaryName }
func (binCodec) tag() byte    { return binaryTag }

func (binCodec) newEncoder(bw *bufio.Writer) frameEncoder { return &binEncoder{bw: bw} }

func (binCodec) newDecoder(br *bufio.Reader) frameDecoder {
	return &binDecoder{br: br, names: make(map[string]string)}
}

// binEncoder assembles each frame in a reused scratch buffer — frameHeadroom
// bytes of room, then the body — and writes it with its length prefix in one
// Write: a frame larger than the bufio buffer goes to the connection in one
// piece instead of a buffer-sized fragment and the rest. An array of at least
// connBufSize bytes is left out of the scratch buffer when the encoder can
// reach the connection (conn): it is noted as a bulk block by position, and
// flushFrame writes the frame from the scratch buffer and the arrays' own
// memory in one writev. Steady state allocates nothing but a bulk frame's
// iovec list.
type binEncoder struct {
	bw    *bufio.Writer
	conn  io.Writer // the connection under bw; nil copies every array into buf
	buf   []byte
	bulks []bulk       // this frame's arrays left out of buf, in frame order
	gobs  bytes.Buffer // scratch for vGob fallback values
}

// bulk is an array's memory standing in the frame at buf offset at.
type bulk struct {
	at  int
	raw []byte
}

// start returns the scratch buffer, emptied, with the headroom in place and
// the frame kind appended.
func (e *binEncoder) start(kind byte) []byte {
	var room [frameHeadroom]byte
	return append(append(e.buf[:0], room[:]...), kind)
}

// flushFrame writes the frame assembled in b (headroom included) and its bulk
// blocks: the length prefix goes right-aligned into the headroom, in front of
// the body. A frame with bulk blocks leaves behind what bw holds, in one
// writev of the scratch pieces and the arrays between them; the blocks are
// forgotten before it returns, so no reference to the caller's arrays
// outlives the Encode call.
func (e *binEncoder) flushFrame(b []byte) error {
	size := len(b) - frameHeadroom
	for _, bl := range e.bulks {
		size += len(bl.raw)
	}
	var hdr [frameHeadroom]byte
	n := binary.PutUvarint(hdr[:], uint64(size))
	from := frameHeadroom - n
	copy(b[from:], hdr[:n])
	if len(e.bulks) == 0 {
		e.buf = b
		_, err := e.bw.Write(b[from:])
		return err
	}
	defer e.drop(b, nil)
	if err := e.bw.Flush(); err != nil {
		return err
	}
	vec := make(net.Buffers, 0, 2*len(e.bulks)+1)
	for _, bl := range e.bulks {
		vec = append(vec, b[from:bl.at], bl.raw)
		from = bl.at
	}
	vec = append(vec, b[from:])
	_, err := vec.WriteTo(e.conn)
	return err
}

// drop forgets the frame being assembled in b, keeping the buffer.
func (e *binEncoder) drop(b []byte, err error) error {
	e.buf = b[:0]
	clear(e.bulks)
	e.bulks = e.bulks[:0]
	return err
}

func (e *binEncoder) EncodeRequest(req *request) error {
	b := e.start(bkRequest)
	var flags uint64
	if req.OneWay {
		flags |= frOneWay
	}
	if req.Hello {
		flags |= frHello
	}
	if req.Client != "" || req.Seq != 0 || req.Epoch != 0 {
		flags |= frTracked
	}
	if req.Stream != 0 {
		flags |= frStream
	}
	if req.Args != nil {
		flags |= frArgs
	}
	b = binary.AppendUvarint(b, flags)
	if flags&frStream != 0 {
		b = binary.AppendUvarint(b, uint64(req.Stream))
	}
	b = appendWireString(b, req.Object)
	b = appendWireString(b, req.Method)
	if flags&frTracked != 0 {
		b = appendWireString(b, req.Client)
		b = binary.AppendUvarint(b, req.Seq)
		b = appendZigzag(b, req.Epoch)
	}
	if flags&frArgs != 0 {
		b = binary.AppendUvarint(b, uint64(len(req.Args)))
		var err error
		for _, v := range req.Args {
			if b, err = e.appendValue(b, v); err != nil {
				return e.drop(b, err)
			}
		}
	}
	return e.flushFrame(b)
}

func (e *binEncoder) EncodeResponse(resp *response) error {
	b := e.start(bkResponse)
	var flags uint64
	if resp.Bound {
		flags |= rfBound
	}
	if resp.Stale {
		flags |= rfStale
	}
	if resp.Err != "" {
		flags |= rfErr
	}
	if resp.Epoch != 0 {
		flags |= rfEpoch
	}
	if resp.Results != nil {
		flags |= rfResults
	}
	if resp.Stream != 0 {
		flags |= rfStream
	}
	b = binary.AppendUvarint(b, flags)
	if flags&rfStream != 0 {
		b = binary.AppendUvarint(b, uint64(resp.Stream))
	}
	if flags&rfEpoch != 0 {
		b = appendZigzag(b, resp.Epoch)
	}
	if flags&rfErr != 0 {
		b = appendWireString(b, resp.Err)
	}
	if flags&rfResults != 0 {
		b = binary.AppendUvarint(b, uint64(len(resp.Results)))
		var err error
		for _, v := range resp.Results {
			if b, err = e.appendValue(b, v); err != nil {
				return e.drop(b, err)
			}
		}
	}
	return e.flushFrame(b)
}

func (e *binEncoder) appendValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, vNil), nil
	case bool:
		if x {
			return append(b, vTrue), nil
		}
		return append(b, vFalse), nil
	case int:
		return appendZigzag(append(b, vInt), int64(x)), nil
	case int32:
		return appendZigzag(append(b, vInt32), int64(x)), nil
	case int64:
		return appendZigzag(append(b, vInt64), x), nil
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, vFloat64), math.Float64bits(x)), nil
	case string:
		return appendWireString(append(b, vString), x), nil
	case []byte:
		b = binary.AppendUvarint(append(b, vBytes), uint64(len(x)))
		return append(b, x...), nil
	case []int32:
		return appendArray(e, b, vInt32s, x), nil
	case []int64:
		return appendArray(e, b, vInt64s, x), nil
	case []float64:
		return appendArray(e, b, vFloat64s, x), nil
	case []any:
		b = binary.AppendUvarint(append(b, vAnys), uint64(len(x)))
		var err error
		for _, e2 := range x {
			if b, err = e.appendValue(b, e2); err != nil {
				return b, err
			}
		}
		return b, nil
	default:
		if nt := namedTypeOf(reflect.TypeOf(v)); nt != nil {
			b = appendWireString(append(b, vNamed), nt.name)
			return e.appendValue(b, nt.plainValue(reflect.ValueOf(v)))
		}
		// Exotic registered type (a struct, a map): a standalone gob stream
		// per value. Cold path by design — the Class.Wire slice types above
		// cover the hot traffic.
		e.gobs.Reset()
		if err := gob.NewEncoder(&e.gobs).Encode(&gobValue{V: v}); err != nil {
			return b, fmt.Errorf("rmi: binary codec gob fallback for %T: %w", v, err)
		}
		b = binary.AppendUvarint(append(b, vGob), uint64(e.gobs.Len()))
		return append(b, e.gobs.Bytes()...), nil
	}
}

// binDecoder reads one length-prefixed frame at a time. A frame that fits the
// connection's read buffer is read whole into a reused buffer and parsed
// there; a longer one is parsed through a window onto the read buffer itself,
// and an array that runs past the window is read from the connection straight
// into the slice it decodes to (see wireCursor), so buf never outgrows the
// read buffer. Every variable-length value is copied out: no decoded value
// aliases a buffer that is reused.
type binDecoder struct {
	br  *bufio.Reader
	buf []byte
	// names interns the request header's strings — object, method, session
	// tag: a connection repeats the same few on every request, so each is
	// copied out of the frame once and handed out again after that.
	names map[string]string
}

// maxInterned bounds a connection's name table; past it a new name is simply
// copied per request, as every name was before. A driver's connection names a
// few dozen objects and methods.
const maxInterned = 256

// name reads a length-prefixed string through the connection's name table.
func (d *binDecoder) name(c *wireCursor) (string, error) {
	b, err := c.prefixed()
	if err != nil {
		return "", err
	}
	if s, ok := d.names[string(b)]; ok { // the conversion in a map index does not allocate
		return s, nil
	}
	s := string(b)
	if len(d.names) < maxInterned {
		d.names[s] = s
	}
	return s, nil
}

func (d *binDecoder) readFrame(wantKind byte) (wireCursor, error) {
	n, err := binary.ReadUvarint(d.br)
	if err != nil {
		return wireCursor{}, err
	}
	if n > maxFrame {
		return wireCursor{}, fmt.Errorf("rmi: binary frame of %d bytes exceeds limit", n)
	}
	c := wireCursor{br: d.br, left: n} // streamed, unless it fits the read buffer
	if n <= uint64(d.br.Size()) {
		if uint64(cap(d.buf)) < n {
			d.buf = make([]byte, n)
		}
		d.buf = d.buf[:n]
		if _, err := io.ReadFull(d.br, d.buf); err != nil {
			return wireCursor{}, connLoss(err)
		}
		c = wireCursor{b: d.buf}
	}
	kind, err := c.byte()
	if err == nil && kind != wantKind {
		err = fmt.Errorf("rmi: binary frame kind 0x%02x, want 0x%02x", kind, wantKind)
	}
	if err != nil {
		return wireCursor{}, c.finish(err)
	}
	return c, nil
}

// connLoss maps a connection lost mid-frame to a clean close.
func connLoss(err error) error {
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return io.EOF
	}
	return err
}

func (d *binDecoder) DecodeRequest(req *request) error {
	c, err := d.readFrame(bkRequest)
	if err != nil {
		return err
	}
	return c.finish(d.request(&c, req))
}

func (d *binDecoder) request(c *wireCursor, req *request) error {
	flags, err := c.uvarint()
	if err != nil {
		return err
	}
	req.OneWay = flags&frOneWay != 0
	req.Hello = flags&frHello != 0
	if flags&frStream != 0 {
		s, err := c.uvarint()
		if err != nil {
			return err
		}
		if s > math.MaxUint32 {
			return fmt.Errorf("rmi: stream id %d out of range", s)
		}
		req.Stream = uint32(s)
	}
	if req.Object, err = d.name(c); err != nil {
		return err
	}
	if req.Method, err = d.name(c); err != nil {
		return err
	}
	if flags&frTracked != 0 {
		if req.Client, err = d.name(c); err != nil {
			return err
		}
		if req.Seq, err = c.uvarint(); err != nil {
			return err
		}
		if req.Epoch, err = c.zigzag(); err != nil {
			return err
		}
	}
	if flags&frArgs != 0 {
		if req.Args, err = c.values(); err != nil {
			return err
		}
	}
	return nil
}

func (d *binDecoder) DecodeResponse(resp *response) error {
	c, err := d.readFrame(bkResponse)
	if err != nil {
		return err
	}
	return c.finish(d.response(&c, resp))
}

func (d *binDecoder) response(c *wireCursor, resp *response) error {
	flags, err := c.uvarint()
	if err != nil {
		return err
	}
	resp.Bound = flags&rfBound != 0
	resp.Stale = flags&rfStale != 0
	if flags&rfStream != 0 {
		s, err := c.uvarint()
		if err != nil {
			return err
		}
		if s > math.MaxUint32 {
			return fmt.Errorf("rmi: stream id %d out of range", s)
		}
		resp.Stream = uint32(s)
	}
	if flags&rfEpoch != 0 {
		if resp.Epoch, err = c.zigzag(); err != nil {
			return err
		}
	}
	if flags&rfErr != 0 {
		if resp.Err, err = c.str(); err != nil {
			return err
		}
	}
	if flags&rfResults != 0 {
		if resp.Results, err = c.values(); err != nil {
			return err
		}
	}
	return nil
}

// wireCursor parses one frame body with bounds checks everywhere: a corrupt
// frame yields an error, never a panic or an allocation beyond the frame's
// declared length.
//
// A frame read whole is b. A frame longer than the read buffer is streamed: b
// is then a window peeked from br, its bytes still unread there, and left
// counts the frame's bytes behind the window; refill slides the window on,
// copyOut reads past it into the caller's memory, and finish skips what the
// parse did not consume, so the next frame starts where it should.
type wireCursor struct {
	b    []byte
	off  int
	br   *bufio.Reader // set while streaming
	left uint64
}

// remaining counts the frame's unparsed bytes, in view or not.
func (c *wireCursor) remaining() int { return len(c.b) - c.off + int(c.left) }

// refill slides a streamed frame's window past what was parsed and shows as
// much of the rest as the read buffer holds; the callers need at most
// binary.MaxVarintLen64 bytes, or a take no longer than the buffer.
func (c *wireCursor) refill() error {
	if c.left == 0 {
		return errFrameTruncated
	}
	if _, err := c.br.Discard(c.off); err != nil {
		return connLoss(err)
	}
	have := uint64(len(c.b)-c.off) + c.left
	w := min(have, uint64(c.br.Size()))
	b, err := c.br.Peek(int(w))
	if err != nil {
		return connLoss(err)
	}
	c.b, c.off, c.left = b, 0, have-w
	return nil
}

// copyOut fills dst with the frame's next len(dst) bytes: what the window
// holds is copied, the rest of a streamed frame is read from the connection
// straight into dst (bufio hands a read of at least its size to the
// connection).
func (c *wireCursor) copyOut(dst []byte) error {
	if len(dst) > c.remaining() {
		return errFrameTruncated
	}
	k := copy(dst, c.b[c.off:])
	c.off += k
	if k == len(dst) {
		return nil
	}
	if _, err := c.br.Discard(c.off); err != nil {
		return connLoss(err)
	}
	c.b, c.off = nil, 0
	c.left -= uint64(len(dst) - k)
	_, err := io.ReadFull(c.br, dst[k:])
	return connLoss(err)
}

// finish ends the frame with the parse's verdict err, skipping what is left
// of a streamed frame; err wins over a failed skip.
func (c *wireCursor) finish(err error) error {
	if c.br == nil {
		return err
	}
	_, skipErr := c.br.Discard(len(c.b) + int(c.left))
	if err == nil {
		err = connLoss(skipErr)
	}
	return err
}

func (c *wireCursor) byte() (byte, error) {
	if c.off >= len(c.b) {
		if err := c.refill(); err != nil {
			return 0, err
		}
	}
	v := c.b[c.off]
	c.off++
	return v, nil
}

func (c *wireCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n == 0 && c.left > 0 { // the window ends inside the varint
		if err := c.refill(); err != nil {
			return 0, err
		}
		v, n = binary.Uvarint(c.b[c.off:])
	}
	if n <= 0 {
		return 0, errFrameTruncated
	}
	c.off += n
	return v, nil
}

// count reads an element count and checks that that many elements of width
// bytes fit in what is left of the frame, before anything is allocated for
// them.
func (c *wireCursor) count(width uint64) (uint64, error) {
	n, err := c.uvarint()
	if err == nil && n > uint64(c.remaining())/width {
		err = errFrameTruncated
	}
	return n, err
}

func (c *wireCursor) zigzag() (int64, error) {
	u, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

// take returns the frame's next n bytes. The result aliases the frame, or a
// streamed frame's window — valid until the cursor moves on — except for a
// run longer than the read buffer, which is copied out into fresh memory.
func (c *wireCursor) take(n uint64) ([]byte, error) {
	if n > uint64(c.remaining()) {
		return nil, errFrameTruncated
	}
	if n > uint64(len(c.b)-c.off) {
		if n > uint64(c.br.Size()) {
			out := make([]byte, n)
			return out, c.copyOut(out)
		}
		if err := c.refill(); err != nil {
			return nil, err
		}
	}
	b := c.b[c.off : c.off+int(n)]
	c.off += int(n)
	return b, nil
}

// prefixed reads a length-prefixed run of bytes (see take).
func (c *wireCursor) prefixed() ([]byte, error) {
	n, err := c.count(1)
	if err != nil {
		return nil, err
	}
	return c.take(n)
}

func (c *wireCursor) str() (string, error) {
	b, err := c.prefixed()
	return string(b), err
}

// values parses a counted value list ([]any).
func (c *wireCursor) values() ([]any, error) {
	// Every encoded value costs at least one tag byte, so the count can
	// never legitimately exceed the bytes left. A streamed frame's bytes may
	// not have arrived yet, so its list grows with the values actually read.
	n, err := c.count(1)
	if err != nil {
		return nil, err
	}
	out := make([]any, 0, min(n, uint64(len(c.b)-c.off)))
	for ; n > 0; n-- {
		v, err := c.value()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func (c *wireCursor) value() (any, error) {
	tag, err := c.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case vNil:
		return nil, nil
	case vFalse:
		return false, nil
	case vTrue:
		return true, nil
	case vInt:
		v, err := c.zigzag()
		return int(v), err
	case vInt32:
		v, err := c.zigzag()
		if err != nil {
			return nil, err
		}
		if v < math.MinInt32 || v > math.MaxInt32 {
			return nil, fmt.Errorf("rmi: int32 value %d out of range", v)
		}
		return int32(v), nil
	case vInt64:
		return c.zigzag()
	case vFloat64:
		b, err := c.take(8)
		if err != nil {
			return nil, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
	case vString:
		return c.str()
	case vBytes:
		n, err := c.count(1)
		if err != nil || n == 0 {
			return []byte(nil), err
		}
		out := make([]byte, n)
		return out, c.copyOut(out)
	case vInt32s:
		return readFixed[int32](c, 4)
	case vInt64s:
		return readFixed[int64](c, 8)
	case vFloat64s:
		return readFixed[float64](c, 8)
	case vAnys:
		v, err := c.values()
		if err != nil {
			return nil, err
		}
		if v == nil {
			v = []any{}
		}
		return v, nil
	case vGob:
		b, err := c.prefixed()
		if err != nil {
			return nil, err
		}
		if err := checkGobLengths(b); err != nil {
			return nil, err
		}
		var gv gobValue
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&gv); err != nil {
			return nil, fmt.Errorf("rmi: binary codec gob fallback: %w", err)
		}
		return gv.V, nil
	case vNamed:
		name, err := c.str()
		if err != nil {
			return nil, err
		}
		nt := namedTypeByName(name)
		if nt == nil {
			return nil, fmt.Errorf("rmi: binary codec: type %q is not registered (RegisterType)", name)
		}
		plain, err := c.value()
		if err != nil {
			return nil, err
		}
		return nt.fromPlain(plain)
	default:
		return nil, fmt.Errorf("rmi: unknown value tag 0x%02x", tag)
	}
}

// checkGobLengths walks the message lengths of a vGob blob as encoding/gob
// reads them — a uint below 0x80 is its own byte, anything else a negated
// byte count and that many big-endian bytes — and rejects one that runs past
// the blob: gob allocates a message's declared length before it reads a byte
// of it, so a few bytes of blob could otherwise cost the node megabytes.
func checkGobLengths(b []byte) error {
	for len(b) > 0 {
		n, w := uint64(b[0]), 1
		if n >= 0x80 {
			w -= int(int8(b[0]))
			if w > 9 || w > len(b) {
				return errGobLength
			}
			n = 0
			for _, x := range b[1:w] {
				n = n<<8 | uint64(x)
			}
		}
		if n > uint64(len(b)-w) {
			return errGobLength
		}
		b = b[w+int(n):]
	}
	return nil
}

var errGobLength = errors.New("rmi: binary codec gob fallback: message length past the value")

// fixedWidth is the element types of the block-copied array tags.
type fixedWidth interface{ int32 | int64 | float64 }

// appendArray appends an array value to the frame: copied in (appendFixed),
// or, when it fills a connection buffer and e can write around its bufio
// buffer, as tag and count only, with x's memory noted as a bulk block.
func appendArray[T fixedWidth](e *binEncoder, b []byte, tag byte, x []T) []byte {
	raw := rawBytes(x)
	if !hostLittleEndian || e.conn == nil || len(raw) < connBufSize {
		return appendFixed(b, tag, x)
	}
	b = binary.AppendUvarint(append(b, tag), uint64(len(x)))
	e.bulks = append(e.bulks, bulk{at: len(b), raw: raw})
	return b
}

// appendFixed appends an array value — tag, count, then x's elements in
// fixed-width little-endian form: the slice's own memory on a little-endian
// host, the portable loop elsewhere.
func appendFixed[T fixedWidth](b []byte, tag byte, x []T) []byte {
	b = binary.AppendUvarint(append(b, tag), uint64(len(x)))
	if hostLittleEndian {
		return append(b, rawBytes(x)...)
	}
	return appendFixedPortable(b, x)
}

func appendFixedPortable[T fixedWidth](b []byte, x []T) []byte {
	switch x := any(x).(type) {
	case []int32:
		for _, e := range x {
			b = binary.LittleEndian.AppendUint32(b, uint32(e))
		}
	case []int64:
		for _, e := range x {
			b = binary.LittleEndian.AppendUint64(b, uint64(e))
		}
	case []float64:
		for _, e := range x {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e))
		}
	}
	return b
}

// readFixed parses a counted array of width-byte elements into a fresh slice
// (never an alias of a buffer the decoder reuses): a block copy out of the
// frame, or, past a streamed frame's window, a read from the connection
// straight into the slice's memory.
func readFixed[T fixedWidth](c *wireCursor, width uint64) ([]T, error) {
	n, err := c.count(width)
	if err != nil {
		return nil, err
	}
	out := make([]T, n)
	if hostLittleEndian {
		err = c.copyOut(rawBytes(out))
	} else {
		var raw []byte
		if raw, err = c.take(n * width); err == nil {
			fillFixedPortable(out, raw)
		}
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

func fillFixedPortable[T fixedWidth](out []T, raw []byte) {
	switch out := any(out).(type) {
	case []int32:
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(raw[i*4:]))
		}
	case []int64:
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(raw[i*8:]))
		}
	case []float64:
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
	}
}

// namedType is one slice type registered for the vNamed tag. Either the type
// itself converts to a fast-path slice (flat: imagepipe.Frame is a []float64)
// or each of its elements does (a slice of slices: []imagepipe.Frame).
type namedType struct {
	name string
	typ  reflect.Type
	// plain is the unnamed fast-path type ([]int32, []int64, []float64,
	// []byte) a flat value — or, with nested set, each element — converts to
	// for the wire and back from.
	plain  reflect.Type
	nested bool
}

// namedTypes is the registration table, filled by RegisterType at start-up
// and read per value: reflect.Type → *namedType and name → *namedType.
var namedTypes, namedTypesByName sync.Map

func namedTypeOf(t reflect.Type) *namedType {
	if nt, ok := namedTypes.Load(t); ok {
		return nt.(*namedType)
	}
	return nil
}

func namedTypeByName(name string) *namedType {
	if nt, ok := namedTypesByName.Load(name); ok {
		return nt.(*namedType)
	}
	return nil
}

// fastSlices are the unnamed slice types with a tag of their own.
var fastSlices = []reflect.Type{
	reflect.TypeOf([]int32(nil)), reflect.TypeOf([]int64(nil)),
	reflect.TypeOf([]float64(nil)), reflect.TypeOf([]byte(nil)),
}

// fastSliceOf returns the fast-path slice type t converts to, or nil: t must
// be a slice of exactly int32, int64, float64 or byte.
func fastSliceOf(t reflect.Type) reflect.Type {
	if t.Kind() != reflect.Slice {
		return nil
	}
	for _, fast := range fastSlices {
		if t.Elem() == fast.Elem() {
			return fast
		}
	}
	return nil
}

// gobTypeName is the name gob.Register files t under: the full import path and
// name for a defined type (two packages called imagepipe may each have a
// Frame), the type's spelling for an unnamed one ([]imagepipe.Frame).
func gobTypeName(t reflect.Type) string {
	if t.Name() == "" || t.PkgPath() == "" {
		return t.String()
	}
	return t.PkgPath() + "." + t.Name()
}

// registerNamed enters t in the vNamed table if it has one of the two
// registered-slice shapes; any other type keeps the vGob path. The name is
// the one gob registers the type under (gobTypeName), so a clash has already
// panicked in gob.Register.
func registerNamed(t reflect.Type) {
	if t == nil || t.Kind() != reflect.Slice || namedTypeOf(t) != nil {
		return // not a candidate, or entered already (every ExportNew re-registers)
	}
	plain, nested := fastSliceOf(t), false
	if plain == t {
		return // has a tag of its own
	}
	if plain == nil {
		if plain = fastSliceOf(t.Elem()); plain == nil {
			return
		}
		nested = true
	}
	// By name first: once an encoder can find the type, every decoder of this
	// process can already resolve the name it will write.
	name := gobTypeName(t)
	nt, _ := namedTypesByName.LoadOrStore(name, &namedType{name: name, typ: t, plain: plain, nested: nested})
	namedTypes.LoadOrStore(t, nt)
}

// plainValue converts a value of the registered type to what the fast-path
// tags encode: the unnamed slice, or a list of them.
func (nt *namedType) plainValue(v reflect.Value) any {
	if !nt.nested {
		return v.Convert(nt.plain).Interface()
	}
	list := make([]any, v.Len())
	for i := range list {
		list[i] = v.Index(i).Convert(nt.plain).Interface()
	}
	return list
}

// fromPlain converts a decoded plain form back to the registered type. A
// zero-length value (or element) comes back nil, as it does through gob —
// the two codecs stay value-equivalent. plain is freshly decoded, so the
// result shares nothing with the frame buffer.
func (nt *namedType) fromPlain(plain any) (any, error) {
	if !nt.nested {
		v, err := nt.convert(plain, nt.typ)
		if err != nil {
			return nil, err
		}
		return v.Interface(), nil
	}
	list, ok := plain.([]any)
	if !ok {
		return nil, fmt.Errorf("rmi: binary codec: %s carries a %T, want a list", nt.name, plain)
	}
	if len(list) == 0 {
		return reflect.Zero(nt.typ).Interface(), nil
	}
	out := reflect.MakeSlice(nt.typ, len(list), len(list))
	for i, item := range list {
		v, err := nt.convert(item, nt.typ.Elem())
		if err != nil {
			return nil, err
		}
		out.Index(i).Set(v)
	}
	return out.Interface(), nil
}

func (nt *namedType) convert(plain any, to reflect.Type) (reflect.Value, error) {
	v := reflect.ValueOf(plain)
	if !v.IsValid() || v.Type() != nt.plain {
		return reflect.Value{}, fmt.Errorf("rmi: binary codec: %s carries a %T, want %s", nt.name, plain, nt.plain)
	}
	if v.Len() == 0 {
		return reflect.Zero(to), nil
	}
	return v.Convert(to), nil
}
