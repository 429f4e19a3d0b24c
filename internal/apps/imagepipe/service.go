package imagepipe

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"aspectpar/internal/aspect"
	"aspectpar/internal/clock"
	"aspectpar/internal/exec"
	"aspectpar/internal/par"
	"aspectpar/internal/rmi"
)

// Service is the resident streaming deployment of the image pipeline: the
// filter chain stays exported on a set of rmi.Node daemons with the stage
// topology installed, and clients feed it an open-ended stream of frames.
// Each Submit is a windowed one-way ingest into stage 0; the hops between
// stages run peer-to-peer on the nodes (par.Topology), and the driver's
// only steady-state traffic is the ingest feed plus one parked read of the
// terminal stage's completion ledger (Stage.AwaitDone), which returns the
// moment a frame finishes the chain. Submit and Flush sleep until that reply
// wakes them; nothing polls while completions flow.
//
// A waiter that hears nothing for heartbeat runs the pump instead: heal and
// redeliver through the topology control plane (par.NetRMI.PumpTopology),
// read the ledger without parking (Stage.TakeDone), re-ingest what is past
// its retry deadline, and start the parked read again if it ended. Fault
// detection and recovery live there, at the cadence the service always had.
//
// Delivery is exactly-once end to end with one dedupe layer, the terminal
// stage's ledger, rather than distributed transactions: every frame carries a
// stream id, the ledger records each id at most once and is read by cursor —
// entries leave it only once a later read has acknowledged them, so a lost
// reply is repeated, not lost — the driver hands out only ids still pending,
// and the service re-ingests from the head any id that misses its retry
// deadline. Inner stages keep no record of what they filtered: a duplicate
// is filtered again, byte-identically, and absorbed at the ledger. A
// mid-stream stage crash therefore loses nothing: unacked hops strand at the
// upstream node and are redelivered after the topology heals, anything lost
// inside the dead process is re-driven from the head, and the ledger absorbs
// every duplicate the recovery creates.
type Service struct {
	cfg   ServiceConfig
	clk   clock.Clock
	ctx   exec.Context
	class *par.Class
	pipe  *par.Pipeline
	mw    *par.NetRMI
	pool  *par.Pool
	nodes []*rmi.Node // owned in-process loopback daemons

	head     any // woven pipeline handle: Submit ingests through it
	terminal any // last stage's reference: completion ledger lives there

	mu       sync.Mutex
	nextID   int64
	pending  map[int64]*pendingFrame
	ready    map[int64]Frame
	stats    ServiceStats
	errs     []error
	draining bool
	closed   bool

	// The driver's place in the terminal ledger: the incarnation stamp and
	// cursor of the last reply absorbed. Every read sends them back as its
	// acknowledgement (see Stage.AwaitDone).
	inc, cursor int64
	fresh       int64         // first id submitted after the last cursor restart
	wake        chan struct{} // closed and replaced whenever completions land
	watching    bool          // the parked read's goroutine is running
	watchers    sync.WaitGroup
	pumps       int64 // heartbeat pumps run (tests)
	resets      int64 // cursor restarts after the terminal stage reincarnated (tests)
}

type pendingFrame struct {
	frame Frame
	since time.Time
}

// ServiceConfig configures a resident pipeline service. The zero value
// launches two in-process loopback daemons — the smallest real-TCP
// deployment — with fault tolerance off.
type ServiceConfig struct {
	// Addrs lists existing rmi.Node daemons (cmd/rminode) to deploy onto.
	// Empty launches Nodes in-process loopback daemons instead.
	Addrs []string

	// Nodes is how many in-process daemons to launch when Addrs is empty
	// (default 2).
	Nodes int

	// Registry switches the service onto an elastic pool (par.DialPool):
	// membership follows the registry, and a cordoned member's hops strand,
	// redeliver and heal while the stream keeps flowing.
	Registry string

	// Faults enables the middleware's fault-tolerance subsystem; a service
	// that must survive node crashes sets Enabled, which also turns on
	// placement failover.
	Faults par.FaultPolicy

	// Net appends extra middleware options (codec, stream width, ...).
	Net []par.NetOption

	// Window bounds the in-flight stream: Submit blocks while more than
	// Window frames are submitted but not yet delivered. Zero means
	// unbounded.
	Window int

	// RetryAfter is the end-to-end retry deadline: a frame not delivered
	// within it is re-ingested from the head (default 250ms). The terminal
	// ledger makes the retry idempotent.
	RetryAfter time.Duration

	// Clock overrides the service's time source (retry deadlines, the
	// heartbeat and stall timers, middleware timers). Nil keeps the wall
	// clock.
	Clock clock.Clock
}

// ServiceStats is a snapshot of the stream's progress counters.
type ServiceStats struct {
	Submitted  int64 // frames accepted by Submit
	Completed  int64 // frames delivered from the terminal ledger
	Retried    int64 // end-to-end re-ingests after a missed deadline
	Duplicates int64 // ids one ledger incarnation delivered twice (must stay 0)
	Topo       par.TopologyStats
}

const (
	// heartbeat is how long a waiter in Submit or Flush hears nothing from
	// the parked read before it runs the pump itself.
	heartbeat = 2 * time.Millisecond
	// maxPark bounds one parked read at the terminal stage; the read is
	// re-issued when it ends, so this only sets how often an idle service
	// touches the wire and how long a read outlives a stage that moved away.
	maxPark = 250 * time.Millisecond
	// stallAfter bounds Flush: this long without a single completion is
	// reported as a stall instead of waiting forever.
	stallAfter = 10 * time.Second
)

// StartService deploys the filter chain and returns the resident service.
// The pipeline's stage topology is installed on the nodes at deploy time,
// so the stream's inner hops never touch the driver.
func StartService(cfg ServiceConfig) (*Service, error) {
	s := &Service{
		cfg:     cfg,
		clk:     clock.Or(cfg.Clock),
		ctx:     exec.Real(),
		pending: make(map[int64]*pendingFrame),
		ready:   make(map[int64]Frame),
		wake:    make(chan struct{}),
	}
	if s.cfg.RetryAfter <= 0 {
		s.cfg.RetryAfter = 250 * time.Millisecond
	}
	if err := s.dial(); err != nil {
		s.Close()
		return nil, err
	}
	if err := s.deploy(); err != nil {
		s.Close()
		return nil, err
	}
	s.watch()
	return s, nil
}

// dial builds the middleware: pool-backed when Registry is set, otherwise a
// static table over Addrs or freshly launched loopback daemons.
func (s *Service) dial() error {
	netOpts := append([]par.NetOption(nil), s.cfg.Net...)
	if s.cfg.Clock != nil {
		netOpts = append(netOpts, par.WithNetClock(s.cfg.Clock))
	}
	if s.cfg.Faults.Enabled {
		netOpts = append(netOpts, par.WithFaultPolicy(s.cfg.Faults))
	}
	if s.cfg.Registry != "" {
		pool, err := par.DialPool(s.cfg.Registry, par.WithPoolNet(netOpts...))
		if err != nil {
			return fmt.Errorf("imagepipe: dial pool %s: %w", s.cfg.Registry, err)
		}
		s.pool, s.mw = pool, pool.Middleware()
		// A cordon reroutes the condemned member's stages: pump immediately
		// so in-flight hops strand, redeliver and the topology heals without
		// waiting for the next client-driven poll.
		pool.OnCordon(func(exec.NodeID, string, bool) { _, _ = s.mw.PumpTopology() })
		return nil
	}
	addrs := s.cfg.Addrs
	if len(addrs) == 0 {
		count := s.cfg.Nodes
		if count <= 0 {
			count = 2
		}
		for i := 0; i < count; i++ {
			var nodeOpts []rmi.Option
			if s.cfg.Clock != nil {
				nodeOpts = append(nodeOpts, rmi.WithClock(s.cfg.Clock))
			}
			node := rmi.NewNode(exec.Real(), nodeOpts...)
			par.HostClass(node, DefineClass(par.NewDomain()))
			addr, err := node.Listen("127.0.0.1:0")
			if err != nil {
				return fmt.Errorf("imagepipe: service node %d: %w", i, err)
			}
			s.nodes = append(s.nodes, node)
			addrs = append(addrs, addr)
		}
	}
	mw, err := par.DialNet(par.NetAddressTable(addrs...), netOpts...)
	if err != nil {
		return fmt.Errorf("imagepipe: dial nodes: %w", err)
	}
	s.mw = mw
	if len(s.cfg.Addrs) > 0 {
		// Borrowed daemons may hold a previous deployment's placements.
		if err := mw.Reset(); err != nil {
			return fmt.Errorf("imagepipe: reset nodes: %w", err)
		}
	}
	return nil
}

// deploy wires the woven stack and creates the stage chain, which compiles
// and installs the par.Topology on the worker daemons.
func (s *Service) deploy() error {
	dom := par.NewDomain()
	s.class = DefineClass(dom)
	s.pipe = par.NewPipeline(par.PipelineConfig{
		Class:  s.class,
		Method: "Ingest",
		Stages: len(Kinds),
		StageArgs: func(orig []any, stage int) []any {
			return []any{Kinds[stage], stage == len(Kinds)-1}
		},
		Split: func(args []any) [][]any {
			ids := args[0].([]int64)
			frames := args[1].([]Frame)
			parts := make([][]any, len(ids))
			for i := range ids {
				parts[i] = []any{ids[i], frames[i]}
			}
			return parts
		},
		// Caller-side twin of the "stream" rule, for the ClientForward
		// fallback; in topology mode the nodes run the named rule instead.
		Forward: func(stage int, results []any, args []any) []any {
			if len(results) != 2 {
				return nil
			}
			return []any{results[0], results[1]}
		},
		ForwardRule: "stream",
	})
	var placement par.Placement
	if s.pool != nil {
		placement = s.pool.Placement()
	} else {
		placement = par.RoundRobin(0, s.mw.Nodes())
	}
	dist := par.NewDistribution(dom,
		aspect.New("Stage"), aspect.Call("Stage", "*"), s.mw, placement)
	if err := s.pipe.UseTopology(s.mw); err != nil {
		return err
	}
	par.NewStack(dom, s.pipe, dist) // plugs the modules; nothing reads the stack back
	head, err := s.class.New(s.ctx, Kinds[0], false)
	if err != nil {
		return fmt.Errorf("imagepipe: deploying stage chain: %w", err)
	}
	s.head = head
	stages := s.pipe.Managed()
	s.terminal = stages[len(stages)-1]
	return nil
}

// Submit feeds frames into the stream and returns their assigned ids.
// Results arrive asynchronously: Take drains them, Flush waits for them.
// With a Window configured, Submit blocks until the stream has room — the
// client-side half of the backpressure chain whose node-side half is the
// ack-clocked hop windows.
func (s *Service) Submit(frames []Frame) ([]int64, error) {
	if len(frames) == 0 {
		return nil, nil
	}
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return nil, errors.New("imagepipe: service is draining")
	}
	s.mu.Unlock()
	if s.cfg.Window > 0 {
		for {
			s.mu.Lock()
			room := len(s.pending)+len(frames) <= s.cfg.Window
			wake := s.wake
			s.mu.Unlock()
			if room {
				break
			}
			if err := s.await(wake); err != nil {
				return nil, err
			}
		}
	}
	s.mu.Lock()
	ids := make([]int64, len(frames))
	now := s.clk.Now()
	for i, f := range frames {
		ids[i] = s.nextID
		s.nextID++
		s.pending[ids[i]] = &pendingFrame{frame: f, since: now}
	}
	s.stats.Submitted += int64(len(frames))
	s.mu.Unlock()
	if err := s.ingest(ids, frames); err != nil {
		return ids, err
	}
	return ids, nil
}

// ingest drives one batch through the woven head call. Under a fault
// policy, transport errors are recorded rather than returned: the journal
// replay and the end-to-end retry own recovery.
func (s *Service) ingest(ids []int64, frames []Frame) error {
	_, err := s.class.Call(s.ctx, s.head, "Ingest", ids, frames)
	if err != nil {
		if !s.cfg.Faults.Enabled {
			return fmt.Errorf("imagepipe: ingest: %w", err)
		}
		s.record(err)
	}
	return nil
}

// watch keeps one AwaitDone parked at the terminal stage for as long as the
// reads succeed, absorbing each reply. It rides the middleware's park lane,
// outside the fault journal: on any error the goroutine simply ends, and the
// next heartbeat pump — whose polled read keeps the stream live meanwhile —
// starts it again.
func (s *Service) watch() {
	s.mu.Lock()
	if s.watching || s.closed {
		s.mu.Unlock()
		return
	}
	s.watching = true
	s.watchers.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.watchers.Done()
		for {
			s.mu.Lock()
			inc, cursor := s.inc, s.cursor
			s.mu.Unlock()
			res, err := s.mw.InvokeParked(s.terminal, "AwaitDone", inc, cursor, int64(maxPark))
			if err == nil {
				err = s.absorb(inc, res)
			}
			if err != nil {
				s.mu.Lock()
				s.watching = false
				s.mu.Unlock()
				return
			}
		}
	}()
}

// absorb takes one ledger reply — from the parked read or the pump's polled
// one, which may overlap — into the stream. sent is the incarnation stamp
// the read was issued with. Entries are placed by their position in the
// ledger, so one that an overlapping read already delivered is skipped by
// arithmetic, not looked up; Duplicates counts only what a ledger must never
// produce, an id it recorded twice.
func (s *Service) absorb(sent int64, res []any) error {
	if len(res) != 4 {
		return fmt.Errorf("imagepipe: ledger read returned %d values, want 4", len(res))
	}
	inc, ok1 := res[0].(int64)
	end, ok2 := res[1].(int64)
	ids, ok3 := res[2].([]int64)
	frames, ok4 := res[3].([]Frame)
	if !ok1 || !ok2 || !ok3 || !ok4 || len(ids) != len(frames) {
		return fmt.Errorf("imagepipe: malformed ledger read (%T, %T, %T, %T)", res[0], res[1], res[2], res[3])
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if inc != s.inc {
		if sent != s.inc {
			// The reply of a read still parked at an incarnation the stream
			// has since moved on from: its entries were delivered, or are
			// pending and will be re-ingested past their deadline.
			return nil
		}
		// The terminal stage was rebuilt and its ledger restarted empty:
		// count from its beginning. The new ledger may record again a frame
		// its predecessor already delivered — one whose hop acknowledgement
		// died with the old node, so the hop was redelivered — which the
		// pending map absorbs; only ids submitted from here on can be told
		// apart as the ledger's own duplicates.
		if s.inc != 0 {
			s.resets++
			s.fresh = s.nextID
		}
		s.inc, s.cursor = inc, 0
	}
	first := end - int64(len(ids)) + 1 // ledger position of ids[0]
	landed := false
	for i := max(0, s.cursor+1-first); i < int64(len(ids)); i++ {
		id := ids[i]
		if _, ok := s.pending[id]; ok {
			delete(s.pending, id)
			s.ready[id] = frames[i]
			s.stats.Completed++
			landed = true
		} else if id >= s.fresh {
			s.stats.Duplicates++
		}
	}
	s.cursor = max(s.cursor, end)
	if landed {
		close(s.wake)
		s.wake = make(chan struct{})
	}
	return nil
}

// await blocks until completions land (wake, read under s.mu together with
// the condition being waited on, is closed) or, after heartbeat of silence,
// runs one pump.
func (s *Service) await(wake <-chan struct{}) error {
	t := s.clk.NewTimer(heartbeat)
	select {
	case <-wake:
		t.Stop()
		return nil
	case <-t.C():
		return s.pump()
	}
}

// heal runs one pass of the topology control plane: re-push the plan after a
// placement change, collect the nodes' hop counters, redeliver strands.
// Under a fault policy its errors are recorded rather than returned.
func (s *Service) heal() error {
	if _, err := s.mw.PumpTopology(); err != nil {
		if !s.cfg.Faults.Enabled {
			return err
		}
		s.record(err)
	}
	return nil
}

// pump is the heartbeat: heal and redeliver through the topology control
// plane, read the terminal ledger without parking, re-ingest anything past
// its retry deadline, and restart the parked read if it ended.
func (s *Service) pump() error {
	s.mu.Lock()
	s.pumps++
	inc, cursor := s.inc, s.cursor
	s.mu.Unlock()
	if err := s.heal(); err != nil {
		return err
	}
	res, err := s.class.CallWith(s.ctx, par.Internal|par.NoAsync, s.terminal, "TakeDone", inc, cursor)
	if err == nil {
		err = s.absorb(inc, res)
	}
	if err != nil {
		if !s.cfg.Faults.Enabled {
			return fmt.Errorf("imagepipe: polling completions: %w", err)
		}
		s.record(err)
		return nil
	}
	s.watch()
	var retryIDs []int64
	var retryFrames []Frame
	s.mu.Lock()
	now := s.clk.Now()
	for id, p := range s.pending {
		if now.Sub(p.since) >= s.cfg.RetryAfter {
			p.since = now
			retryIDs = append(retryIDs, id)
			retryFrames = append(retryFrames, p.frame)
		}
	}
	s.stats.Retried += int64(len(retryIDs))
	s.mu.Unlock()
	if len(retryIDs) > 0 {
		return s.ingest(retryIDs, retryFrames)
	}
	return nil
}

// Flush waits until every submitted frame has been delivered — the
// graceful-drain barrier. It returns a stall error if the stream stops
// making progress entirely (recorded transport errors attached).
func (s *Service) Flush() error {
	var seen int64 = -1
	var since time.Time
	for {
		s.mu.Lock()
		outstanding := len(s.pending)
		completed := s.stats.Completed
		wake := s.wake
		s.mu.Unlock()
		if outstanding == 0 {
			return nil
		}
		if completed != seen {
			seen, since = completed, s.clk.Now()
		} else if s.clk.Since(since) > stallAfter {
			s.mu.Lock()
			errs := append([]error(nil), s.errs...)
			s.mu.Unlock()
			return fmt.Errorf("imagepipe: stream stalled with %d frames outstanding: %w",
				outstanding, errors.Join(errs...))
		}
		if err := s.await(wake); err != nil {
			return err
		}
	}
}

// Take drains the delivered results accumulated since the last Take, keyed
// by stream id.
func (s *Service) Take() map[int64]Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.ready
	s.ready = make(map[int64]Frame)
	return out
}

// Drain stops accepting new frames, flushes the outstanding stream and
// returns everything not yet taken — the cordon/shutdown path.
func (s *Service) Drain() (map[int64]Frame, error) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	err := s.Flush()
	if err == nil {
		err = s.heal() // so the drained stream's hop counters are final
	}
	return s.Take(), err
}

// Stats snapshots the stream counters, including the topology control
// plane's (installs, peer-forwarded hops, strands, redeliveries). The nodes'
// hop counters reach the driver only through a topology pump, and pumps are
// rare while completions flow, so Stats runs one pass first: the snapshot is
// current as of the call. An error from that pass is recorded (see Err).
func (s *Service) Stats() ServiceStats {
	if _, err := s.mw.PumpTopology(); err != nil && !errors.Is(err, rmi.ErrClosed) {
		s.record(err)
	}
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.Topo = s.mw.TopologyStats()
	return st
}

// Err drains transport errors recorded while a fault policy let the stream
// keep flowing.
func (s *Service) Err() error {
	s.mu.Lock()
	errs := s.errs
	s.errs = nil
	s.mu.Unlock()
	return errors.Join(errs...)
}

func (s *Service) record(err error) {
	s.mu.Lock()
	if len(s.errs) < 64 {
		s.errs = append(s.errs, err)
	}
	s.mu.Unlock()
}

// Close tears the service down: the middleware (or pool), then any owned
// in-process daemons. Outstanding frames are abandoned; call Drain first
// for a graceful stop.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	if s.pool != nil {
		s.pool.Close()
	} else if s.mw != nil {
		s.mw.Close()
	}
	for _, n := range s.nodes {
		n.Close()
	}
	s.watchers.Wait() // the parked read ended with its connection
}
