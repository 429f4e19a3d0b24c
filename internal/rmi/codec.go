package rmi

import (
	"bufio"
	"encoding/gob"
	"fmt"
)

// This file is the codec seam of the transport: how request/response frames
// become bytes is a pluggable choice, fixed per connection by its first byte.
// A client writes its codec's tag ahead of its first frame, the server reads
// it before it builds the connection's writer and decoder, and both ends then
// speak that codec for the connection's whole life. Dial picks the binary
// codec unless told otherwise, so every connection of the stack (drivers,
// pools, heartbeats, the nodes' own forward lanes) speaks it without the
// application asking; a server answers each connection in the codec it was
// opened with, so one node serves gob and binary clients at once.

// Codec encodes and decodes the request/response frames of one connection.
// The two built-ins are GobCodec (self-describing, any registered type) and
// BinaryCodec (the compact length-prefixed format). Implementations are
// internal: a codec is chosen by value, constructed per connection side.
type Codec interface {
	// Name identifies the codec to flags and config knobs (see CodecByName).
	Name() string
	// tag is the connection's first byte, which names the codec to the server.
	tag() byte
	newEncoder(bw *bufio.Writer) frameEncoder
	newDecoder(br *bufio.Reader) frameDecoder
}

// frameEncoder writes frames to one side of a connection. Implementations
// are not safe for concurrent use; both ends serialise through their
// connection's frameWriter.
type frameEncoder interface {
	EncodeRequest(*request) error
	EncodeResponse(*response) error
}

// frameDecoder reads frames from one side of a connection. The destination
// struct must be zeroed by the caller — decoders fill only the fields
// present on the wire.
type frameDecoder interface {
	DecodeRequest(*request) error
	DecodeResponse(*response) error
}

const (
	gobName    = "gob"
	binaryName = "binary"
	gobTag     = 'g'
	binaryTag  = 'b'
)

// GobCodec returns the encoding/gob frame codec: self-describing, handles
// any registered type. Passing it to WithCodec pins a client to gob.
func GobCodec() Codec { return gobCodec{} }

// BinaryCodec returns the compact binary frame codec: length-prefixed
// frames, varint-packed fields and type-tagged values with fast paths for
// the Class.Wire payload types ([]int32, []int64, []float64, []byte) and for
// registered slice types built on them (see RegisterType), falling back to an
// embedded gob blob for other registered types. It avoids gob's
// per-connection type re-negotiation and per-message reflection on the hot
// path, and is what Dial picks by default.
func BinaryCodec() Codec { return binCodec{} }

// CodecByName resolves a codec name ("gob", "binary") — the form
// command-line flags and config knobs arrive in.
func CodecByName(name string) (Codec, error) {
	switch name {
	case gobName:
		return GobCodec(), nil
	case binaryName:
		return BinaryCodec(), nil
	default:
		return nil, fmt.Errorf("rmi: unknown codec %q (have gob, binary)", name)
	}
}

// codecByTag resolves a connection's first byte; nil for a byte no codec has.
func codecByTag(tag byte) Codec {
	for _, c := range []Codec{BinaryCodec(), GobCodec()} {
		if c.tag() == tag {
			return c
		}
	}
	return nil
}

type gobCodec struct{}

func (gobCodec) Name() string { return gobName }
func (gobCodec) tag() byte    { return gobTag }

func (gobCodec) newEncoder(bw *bufio.Writer) frameEncoder {
	return &gobFrames{enc: gob.NewEncoder(bw)}
}

func (gobCodec) newDecoder(br *bufio.Reader) frameDecoder {
	return &gobFrames{dec: gob.NewDecoder(br)}
}

// gobFrames adapts encoding/gob streams to the frame interfaces. One
// instance serves one direction (enc or dec set, never both).
type gobFrames struct {
	enc *gob.Encoder
	dec *gob.Decoder
}

func (g *gobFrames) EncodeRequest(req *request) error    { return g.enc.Encode(req) }
func (g *gobFrames) EncodeResponse(resp *response) error { return g.enc.Encode(resp) }
func (g *gobFrames) DecodeRequest(req *request) error    { return g.dec.Decode(req) }
func (g *gobFrames) DecodeResponse(resp *response) error { return g.dec.Decode(resp) }
