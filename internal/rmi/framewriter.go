package rmi

import (
	"bufio"
	"io"
	"sync"
	"sync/atomic"
)

// connBufSize is the size of both bufio buffers — the frame writer's and the
// reader's — of every connection. A full default window of small frames (64
// calls of ~100 B, ~130 B with a session tag) fits in one buffer, so a burst
// crosses in one write(2) and one read(2) each way; bufio's 4 KiB default
// split it in two. It is also where the binary codec stops copying (see
// binEncoder and binDecoder): an array of at least this many bytes is written
// from the sender's slice rather than through the buffer, and a frame longer
// than the read buffer is parsed through a window onto it, its arrays read
// straight into the receiver's slices.
const connBufSize = 16 << 10

// frameWriter is the write side of one connection: driver→node requests,
// node→driver replies and the node→node forward lane (an ordinary Client)
// all encode through one of these, under its mutex, into one buffer. Frames
// are batched, never merged — the bytes on the wire are the bytes the codec
// produced, in encode order. A binary frame carrying a bulk array is the one
// exception to the buffer: under the same mutex, its encoder flushes the
// buffer and writes the frame to the connection itself, in one writev that
// takes the array from the caller's memory.
//
// How a frame leaves the buffer follows the traffic, not lock contention (see
// leave): on an idle connection its writer flushes it inline; otherwise it
// stays buffered and a kick wakes the connection's flusher goroutine, which
// writes out whatever has accumulated by the time it is scheduled. There is
// no timer and nothing to tune: the batch is whatever the scheduler and the
// in-flight depth produce, and it reinforces itself (k replies in one segment
// complete k calls, whose k follow-ups leave in one write).
//
// The invariant: no goroutine parks waiting on a frame that is still in the
// buffer, and no frame waits on anything but the flusher being scheduled.
// Every frame not flushed by its writer has a kick behind it, and the flusher
// blocks only on mu and on the socket — so a sender about to park on the send
// window, a future or a parked call cannot strand its own request, and a slow
// servant on one stream cannot hold another stream's reply.
//
// A writer lives for one connection generation: Reconnect installs a fresh
// one and stops the old flusher. drain (Client.Close, a server connection
// winding down) empties the buffer before the socket drops; stop alone
// (Abort, a failed connection) does not.
type frameWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc frameEncoder
	err error // sticky: a failed connection never accepts more frames

	// expecting counts the frames this connection is still waiting to move:
	// client side, requests whose reply has not arrived; server side,
	// requests decoded but not yet answered, plus one while the read buffer
	// holds more. Zero is what "idle" means.
	expecting atomic.Int32

	kick   chan struct{} // capacity 1: a pending kick covers every frame buffered before it is consumed
	quit   chan struct{}
	once   sync.Once
	onFail func(error) // the flusher reports a failed flush here, off-lock
}

// newFrameWriter starts the writer of one connection, encoding in codec, and
// its flusher. onFail (may be nil) is told when a flush on the flusher
// goroutine fails — the error an inline flush would have returned to its
// caller.
func newFrameWriter(conn io.Writer, codec Codec, onFail func(error)) *frameWriter {
	bw := bufio.NewWriterSize(conn, connBufSize)
	w := &frameWriter{
		bw:     bw,
		enc:    codec.newEncoder(bw),
		kick:   make(chan struct{}, 1),
		quit:   make(chan struct{}),
		onFail: onFail,
	}
	if e, ok := w.enc.(*binEncoder); ok {
		e.conn = conn // bulk arrays leave by writev, past bw
	}
	go w.flusher()
	return w
}

// leave is called with mu held, right after a frame was encoded (encErr is
// the encoder's verdict), and is the one place that decides how the frame
// leaves: flushed by its writer when the connection is otherwise idle — a
// lone call costs one write each way and waits for nobody — and left to the
// flusher when more traffic is in flight, so a burst shares its writes. A
// frame that filled the buffer was already written through by bufio.
func (w *frameWriter) leave(encErr error, idle bool) error {
	err := encErr
	switch {
	case err != nil:
	case idle:
		err = w.bw.Flush()
	case w.bw.Buffered() > 0:
		select {
		case w.kick <- struct{}{}:
		default: // a kick is already pending; its flush covers this frame too
		}
	}
	if err != nil {
		w.err = err
	}
	return err
}

// writeResponse encodes the reply to one request the read loop counted into
// expecting; the connection is idle when it was the last. A failure is sticky.
func (w *frameWriter) writeResponse(resp *response) error {
	idle := w.expecting.Add(-1) == 0
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return w.leave(w.enc.EncodeResponse(resp), idle)
}

// flusher is the connection's single deferred writer.
func (w *frameWriter) flusher() {
	for {
		select {
		case <-w.quit:
			return
		case <-w.kick:
		}
		if err := w.drain(); err != nil {
			if w.onFail != nil {
				w.onFail(err)
			}
			return
		}
	}
}

// drain writes out whatever is buffered and returns the writer's sticky
// error, which a failed flush sets.
func (w *frameWriter) drain() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil && w.bw.Buffered() > 0 {
		w.err = w.bw.Flush()
	}
	return w.err
}

// stop ends the flusher; frames still buffered are dropped with the socket.
func (w *frameWriter) stop() { w.once.Do(func() { close(w.quit) }) }
