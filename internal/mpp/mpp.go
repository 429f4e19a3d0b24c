// Package mpp is a working message-passing library — the Go analogue of the
// Java MPP (Message Passing Package) the paper uses as its lightweight
// distribution middleware (Figure 15). A World of N ranks exchanges typed
// messages over point-to-point FIFO channels; collective operations
// (barrier, broadcast, reduce, gather) are built on them, MPI-style.
//
// The simulated experiments use the cost-model twin in package par; this
// package exists so MPP-style programs also run for real. Nothing else in the
// module imports it yet.
package mpp

import (
	"errors"
	"fmt"
	"sync"
)

// ErrClosed is returned for operations on a closed world.
var ErrClosed = errors.New("mpp: world closed")

// Message is one point-to-point transfer.
type Message struct {
	Source int
	Tag    int
	Data   any
}

// World is a communication universe of Size ranks.
type World struct {
	size int
	// links[src][dst] carries messages; per-pair FIFO like a TCP stream.
	links [][]chan Message

	barrier *barrier

	mu     sync.Mutex
	closed bool
}

// NewWorld creates a world of size ranks with the given per-link buffer
// capacity.
func NewWorld(size, buffer int) *World {
	if size <= 0 {
		panic(fmt.Sprintf("mpp: world of size %d", size))
	}
	if buffer < 0 {
		panic(fmt.Sprintf("mpp: buffer %d", buffer))
	}
	w := &World{size: size, barrier: newBarrier(size)}
	w.links = make([][]chan Message, size)
	for s := range w.links {
		w.links[s] = make([]chan Message, size)
		for d := range w.links[s] {
			w.links[s][d] = make(chan Message, buffer)
		}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Comm returns rank's communicator — the handle one process (goroutine)
// uses. Each rank must be driven by a single goroutine; different ranks may
// run concurrently.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpp: rank %d of %d", rank, w.size))
	}
	return &Comm{world: w, rank: rank, pending: make([][]Message, w.size)}
}

// Close tears the world down; subsequent operations fail with ErrClosed.
func (w *World) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	for _, row := range w.links {
		for _, ch := range row {
			close(ch)
		}
	}
}

// Comm is one rank's endpoint.
type Comm struct {
	world *World
	rank  int
	// pending holds messages received from a source but not yet matched by
	// tag (simple unexpected-message queue, as MPI implementations keep).
	pending [][]Message
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Send delivers data to rank dst with a tag. It blocks while the link
// buffer is full (ready-mode send over a bounded channel).
func (c *Comm) Send(dst, tag int, data any) error {
	if dst < 0 || dst >= c.world.size {
		return fmt.Errorf("mpp: send to rank %d of %d", dst, c.world.size)
	}
	c.world.mu.Lock()
	closed := c.world.closed
	c.world.mu.Unlock()
	if closed {
		return ErrClosed
	}
	c.world.links[c.rank][dst] <- Message{Source: c.rank, Tag: tag, Data: data}
	return nil
}

// Recv blocks until a message with the given tag arrives from rank src.
// Messages from src with other tags are queued for later Recvs (tag
// matching).
func (c *Comm) Recv(src, tag int) (Message, error) {
	if src < 0 || src >= c.world.size {
		return Message{}, fmt.Errorf("mpp: recv from rank %d of %d", src, c.world.size)
	}
	// Check the unexpected-message queue first.
	q := c.pending[src]
	for i, m := range q {
		if m.Tag == tag {
			c.pending[src] = append(q[:i:i], q[i+1:]...)
			return m, nil
		}
	}
	for {
		m, ok := <-c.world.links[src][c.rank]
		if !ok {
			return Message{}, ErrClosed
		}
		if m.Tag == tag {
			return m, nil
		}
		c.pending[src] = append(c.pending[src], m)
	}
}

// Barrier blocks until every rank of the world entered it.
func (c *Comm) Barrier() error {
	c.world.mu.Lock()
	closed := c.world.closed
	c.world.mu.Unlock()
	if closed {
		return ErrClosed
	}
	c.world.barrier.await()
	return nil
}

// collectives use tag space below zero to stay clear of user tags.
const (
	tagBcast  = -1
	tagReduce = -2
	tagGather = -3
)

// Bcast distributes root's data to every rank; each rank passes its own
// (possibly nil) value and receives root's.
func (c *Comm) Bcast(root int, data any) (any, error) {
	if c.rank == root {
		for r := 0; r < c.world.size; r++ {
			if r == root {
				continue
			}
			if err := c.Send(r, tagBcast, data); err != nil {
				return nil, err
			}
		}
		return data, nil
	}
	m, err := c.Recv(root, tagBcast)
	if err != nil {
		return nil, err
	}
	return m.Data, nil
}

// Reduce folds every rank's int64 contribution with op at root; non-root
// ranks receive 0. op must be associative and commutative.
func (c *Comm) Reduce(root int, value int64, op func(a, b int64) int64) (int64, error) {
	if c.rank != root {
		return 0, c.Send(root, tagReduce, value)
	}
	acc := value
	for r := 0; r < c.world.size; r++ {
		if r == root {
			continue
		}
		m, err := c.Recv(r, tagReduce)
		if err != nil {
			return 0, err
		}
		acc = op(acc, m.Data.(int64))
	}
	return acc, nil
}

// Gather collects every rank's value at root, indexed by rank; non-root
// ranks receive nil.
func (c *Comm) Gather(root int, value any) ([]any, error) {
	if c.rank != root {
		return nil, c.Send(root, tagGather, value)
	}
	out := make([]any, c.world.size)
	out[root] = value
	for r := 0; r < c.world.size; r++ {
		if r == root {
			continue
		}
		m, err := c.Recv(r, tagGather)
		if err != nil {
			return nil, err
		}
		out[r] = m.Data
	}
	return out, nil
}

// barrier is a reusable N-party barrier.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	count   int
	phase   int
}

func newBarrier(parties int) *barrier {
	b := &barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() {
	b.mu.Lock()
	defer b.mu.Unlock()
	phase := b.phase
	b.count++
	if b.count == b.parties {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
		return
	}
	for b.phase == phase {
		b.cond.Wait()
	}
}
