package rmi

import (
	"bufio"
	"encoding/gob"
	"fmt"
)

// This file is the codec seam of the transport: how request/response frames
// become bytes is a pluggable choice, negotiated per connection in the Hello
// handshake (see handshake notes in session.go and the negotiation path in
// rmi.go). Every connection starts in gob — the universally understood
// fallback — and switches to the codec the client offers once the server
// agrees. Dial offers the binary codec by default, so every connection of the
// stack (drivers, pools, heartbeats, the nodes' own forward lanes) ends up on
// it without the application asking, while mixed clusters (an old gob-only
// node behind a binary-preferring client) interoperate without configuration.
//
// Both ends frame through a shared *bufio.Reader/*bufio.Writer rather than
// the raw connection. That is load-bearing for the mid-stream switch: a
// *bufio.Reader implements io.ByteReader, so encoding/gob consumes exactly
// the bytes of each message instead of wrapping the stream in its own
// read-ahead buffer — the bytes after the handshake reply are still in OUR
// buffer, where the next codec's decoder can see them.

// Codec encodes and decodes the request/response frames of one connection.
// The two built-ins are GobCodec (the fallback every peer speaks) and
// BinaryCodec (the compact length-prefixed format). Implementations are
// internal: a codec is chosen by value, constructed per connection side.
type Codec interface {
	// Name identifies the codec on the wire during handshake negotiation.
	Name() string
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
)

// GobCodec returns the encoding/gob frame codec: self-describing, handles
// any registered type, and is what every peer speaks before (and without)
// negotiation. Passing it to WithCodec pins a client to gob.
func GobCodec() Codec { return gobCodec{} }

// BinaryCodec returns the compact binary frame codec: length-prefixed
// frames, varint-packed fields and type-tagged values with fast paths for
// the Class.Wire payload types ([]int32, []int64, []float64, []byte) and for
// registered slice types built on them (see RegisterType), falling back to an
// embedded gob blob for other registered types. It avoids gob's
// per-connection type re-negotiation and per-message reflection on the hot
// path, and is what Dial offers by default.
func BinaryCodec() Codec { return binCodec{} }

// Codecs lists the built-in codecs, preference-ordered for negotiation.
func Codecs() []Codec { return []Codec{BinaryCodec(), GobCodec()} }

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

type gobCodec struct{}

func (gobCodec) Name() string { return gobName }

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
