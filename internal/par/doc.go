// Package par implements the paper's methodology: parallelisation concerns
// as pluggable aspect modules over sequential object-oriented core
// functionality.
//
// The four concern categories map to module families:
//
//   - Partition ([Pipeline], [Farm], [Heartbeat]): object duplication (one
//     core object becomes an aspect-managed set), method-call split (one
//     call becomes several that can run in parallel) and call forwarding
//     (pipeline propagation). These are the reusable "abstract aspects" of
//     the paper's Figure 9, parameterised by functions instead of abstract
//     pointcuts. [Farm] schedules its pieces three ways: static round-robin
//     pre-assignment, the paper's dynamic self-scheduling
//     ([FarmConfig].Dynamic), or the work-stealing adaptive scheduler
//     ([FarmConfig].Stealing) described below.
//   - Concurrency ([Concurrency]): asynchronous method invocation and
//     synchronisation (per-object mutual exclusion), plus quiescence for
//     joining. An asynchronous call on a local object is an entry in that
//     object's queue, run in submission order by the one drainer activity a
//     busy object has; only a call on a target the stack's [Distribution]
//     has placed costs an activity of its own (the paper's "new Thread"),
//     because its round trips are worth overlapping. [NewStack] tells the
//     module which targets those are.
//   - Distribution ([Distribution]): placement of aspect-managed objects on
//     cluster nodes and transparent redirection of calls through a
//     [Middleware]. One simulated middleware has two constructors: Java RMI
//     ([NewSimRMI]) and the lighter MPP message-passing package
//     ([NewSimMPP]), which differ in link profile and protocol traits.
//   - Optimisation ([Packing]): an independently pluggable performance
//     aspect.
//
// Core classes register with a [Domain] as a [Class]: a constructor, a method
// table, and woven call sites ([Class.New], [Class.Call]) that route through
// the domain's weaver. Aspect modules are plugged into a [Stack]; unplugging
// every module runs the unchanged sequential code — a call no advice applies
// to reaches its body through one map lookup, with no joinpoint built. Calls
// that aspect code itself generates go through [Class.CallWith], which marks
// the joinpoint ([Internal], [Remote], [NoAsync], [Void]: bits, also readable
// under their Mark* names) so the modules can tell them from core calls.
//
// Advice ordering (outermost first) is fixed by module precedence:
//
//	partition split/duplicate (40) > optimisation (35) > concurrency async (30)
//	> distribution (20) > concurrency sync (10) > partition forward (8)
//	> metering (5) > method body
//
// so a call from core functionality is split by the partition module, each
// piece is detached from its caller — queued on its local object, or given an
// activity that ships the call to the object's node — the server serialises
// per-object access, pipeline forwarding happens where the object lives, and
// the metering module (the simulation's cost account) charges the computation
// to that node's hardware contexts.
//
// # Work-stealing adaptive scheduling
//
// The paper's farms assign packs statically (round-robin) or pull them one
// at a time from a central queue (the dynamic farm). Both lose ground when
// pack costs are heterogeneous: static assignment pins heavy packs to
// whichever worker drew them, and central pulling serialises on the
// dispatcher. The stealing farm ([FarmConfig].Stealing, scheduler.go)
// replaces both with per-worker lock-protected deques and one worker
// activity per replica:
//
//   - owners pop from the front of their own deque; idle workers scan the
//     others round-robin and steal the back half of the first non-empty
//     deque they find ([StealConfig] steal-half);
//   - packs start coarse and split on demand: a steal request arriving at a
//     victim with a single queued pack splits it in two, and an owner
//     popping its last pack while another worker is hungry leaves a
//     stealable half behind (lazy binary splitting), bounded below by
//     StealConfig.MinSplit;
//   - out-of-work workers follow an idle/backoff protocol — yield the
//     processor first (exec.Yield: runtime.Gosched on the real backend, a
//     same-instant reschedule under virtual time), then sleep with
//     exponential backoff — so the same code neither burns a real CPU nor
//     livelocks the discrete-event engine.
//
// Each successful steal charges a fixed 2µs of CPU to the thief, so
// virtual-time runs account for the transaction cost. Under the
// virtual-time backend the whole protocol is deterministic: victim selection
// is a fixed scan order, backoff is seedless, and the engine orders
// same-instant events FIFO. [Farm.StealStats] exposes the counters; the
// accounting invariant Executed == Seeded + Splits ("no pack lost, no pack
// filtered twice") is property-tested.
//
// # Pack payloads
//
// The modules that reshape packs work on calls whose single argument is an
// []int32 payload, the shape of the paper's number packs: the steal
// scheduler halves one at len/2, no half under [StealConfig].MinSplit, and
// [Packing] merges consecutive ones. A partition's Split may put a [Lazy] in
// that place instead: a pack that knows its length, halves itself at
// Len()/2 into halves that build to the two parts of the whole, and builds
// its []int32 only when asked. The steal scheduler halves a Lazy without
// building it. A pack is built in one place, as its aspect-generated call
// enters the weaver ([Class.CallWith] marked [Internal]), so Packing,
// [Metering], every middleware and the fault journal see only []int32
// packs, and no pack is built before its call is made. An original call no
// partition splits reaches the body with its Lazy, which the body builds.
// The sieve's candidate range is one: its driver never holds the 20 MB list
// at once.
//
// # Windowed self-scheduling (latency hiding)
//
// Both self-scheduling schedules originally blocked on one synchronous
// middleware round trip per pack, so over RMI a dispatcher spent most of its
// time waiting — on balanced workloads the dynamic and stealing farms could
// not beat the static farm, whose concurrency module keeps every pack in
// flight at once. [FarmConfig].Window restores the overlap without giving up
// self-scheduling:
//
//   - each worker keeps up to Window packs in flight: a pack call carries a
//     windowSlot under MarkWindowed, and distribution advice over a
//     middleware implementing [AsyncInvoker] ships it asynchronously — the
//     worker pays only the request marshalling cost and moves on;
//   - the middleware executes one client's calls to one object in send order
//     (a per-object dispatch loop draining a pipelined connection, exactly
//     the semantics of the real package rmi client), and delivers one
//     [Completion] per call on the slot's channel;
//   - workers reclaim completions in completion order — blocking only when
//     the window is full or no new pack is obtainable — and settle the
//     acknowledgement's client-side wire and CPU costs via
//     [Completion.Reclaim], so the simulation charges send and ack on both
//     ends honestly;
//   - a stealing worker never prefetches the last pack of its own deque
//     while its pipe is busy (stealScheduler.takeWindowed): a pack in flight
//     cannot be stolen or split any more, so eager claiming at the fringe
//     would quietly re-create static assignment's imbalance. The deferred
//     pack stays queued — stealable, splittable — until the window drains.
//
// There is one worker loop per schedule. Window=1 is a one-slot window of
// that loop: every pack call is the plain synchronous round trip, carries no
// windowSlot, and finishes before the worker obtains the next pack, so the
// middleware never journals it as windowed. The zero value selects
// [DefaultWindow] (double buffering). Without a distribution middleware — or
// over one that cannot pipeline — the marks are inert and calls execute
// inline, so every window gives the same schedule.
// Completion-ordered reclamation keeps the protocol deterministic under
// virtual time; window edge cases (1, > packs, failures mid-window) are
// covered by window_test.go.
//
// # Real middleware (NetRMI)
//
// The simulated middleware models what a remote call costs; [NetRMI]
// performs it.
// It implements the same [Middleware] + [AsyncInvoker] seam over package
// rmi's pipelined TCP transport, so the Distribution module, the Placement
// policies and the windowed farm dispatchers run unchanged — the module
// matrix that conformance-tests against the simulated cluster also runs
// over real sockets (internal/sieve's net matrix, internal/apps/mandel).
//
// The process model: every placement node is an rmi.Node worker daemon —
// cmd/rminode as a separate OS process, or an in-process loopback listener
// in tests — hosting its own woven domain. [HostClass] adapts a woven
// [Class] to the node's servant interface: construction runs the node
// domain's woven construction site and dispatch re-enters its weaver with
// MarkRemote, exactly like the simulated server side. [DialNet] takes the
// exec.NodeID → TCP address table ([NetAddressTable] builds one from an
// ordered list), so Placement policies select among real machines the same
// way they select simulated nodes.
//
// Process separation changes two things. First, construction cannot ship a
// closure: Middleware.ExportNew receives the construction joinpoint's
// arguments, NetRMI sends them through the node's creation protocol
// (rmi.CtlExportNew), the node's own domain runs the constructor, and the
// caller gets a [NetRef] remote reference whose calls distribution advice
// redirects — core code never observes the substitution. Wire types are
// registered with gob from [Class.Wire] metadata on both ends, since both
// processes define the class identically. Second, the remote domain cannot
// run client-side modules' server advice, so the pipeline's stage-to-stage
// forwarding moves to the caller (PipelineConfig.ClientForward).
//
// Failure semantics follow the transport: a peer crash resolves in-flight
// completions with errors, client Close resolves them with rmi.ErrClosed
// (propagated through [Completion.Reclaim]), and one-way void traffic —
// shipped through the ack-clocked send window — surfaces its failures,
// remote and transport alike, in the middleware's Join, which Stack.Join
// drains.
// NetRMI performs real blocking I/O and therefore runs only under the real
// exec backend, with wall-clock elapsed times; the simulated cells remain
// the deterministic cost model.
//
// # Failure handling (one call path, a policy on top)
//
// Every NetRMI call — windowed pack, synchronous gather, one-way void send,
// the creation protocol's control call — takes one path, through the call
// journal (netfault.go): it is journaled per peer and stream under a
// sequence number until its outcome is final. What that path does when the
// transport fails underneath it is a [FaultPolicy] ([WithFaultPolicy] at
// [DialNet]), not a second implementation. Fail-fast, the behaviour
// described above, is the zero policy: no recovery rounds, no failover, one
// creation attempt — the first transport error on a peer fails the calls
// journaled on it and every later call to its objects. Such a middleware
// sends no session tag, so the nodes do no dedupe work for it, and it keeps
// nothing once a call has settled: no history, no checkpoint. An enabled
// policy is for long-lived deployments. Three mechanisms compose under it
// (netrecover.go), each building on the session layer package rmi provides
// (epoch handshakes, session-tracked requests, server-side at-most-once
// dedupe):
//
//   - Reconnect + replay. On a transport failure a recovery goroutine
//     re-dials under the bounded-backoff rmi.ReconnectPolicy; a matching
//     session epoch means the node (and its objects) survived a
//     transport blip, so the unacknowledged
//     journal replays with its original sequence numbers and the node's
//     dedupe absorbs whatever was applied before the connection died —
//     including a call still mid-dispatch, which the replay waits for
//     rather than re-executing.
//
//   - Reincarnation. A changed epoch means the node restarted: its placed
//     objects, with all their accumulated state, are gone. Recovery re-runs
//     each object's creation protocol from the journaled constructor
//     arguments, replays its applied-call history in order (re-execution
//     is correct exactly because the old incarnation's effects vanished
//     with it), and then replays the unacknowledged tail.
//
//   - Placement failover. When the reconnect budget is exhausted the peer
//     is dropped and its objects are rebuilt the same way on a surviving
//     node; the registry placement is remapped, so the middleware's
//     NodeOf follows the move. A new
//     export whose requested node is already gone for good fails over at
//     creation time: the object is built on a surviving node instead and
//     the returned reference records where it actually landed. If no
//     surviving node hosts the class, the pending calls fail and Join
//     surfaces a typed [NoFailoverError]: fail fast, never silent loss.
//
// A lost session's in-flight packs are replayed by the journal like any
// other call; the stealing farm has no recovery path of its own, and the
// scheduler's Executed == Seeded + Splits invariant holds through the crash.
//
// Two guards close the reset race: NetRMI.Reset bumps the journal
// generation (an in-flight recovery abandons instead of resurrecting
// pre-reset exports), and the node's reset rotates its session epoch (a
// replay that slips past the client-side check is rejected as stale,
// rmi.ErrStaleSession). [NetRMI.FaultStats] counts reconnects, replays,
// failovers, dropped peers and abandoned recoveries; the
// chaos CI matrix kills node daemons at seeded points mid-run and pins
// every cell to the hand-coded oracle. The journal holds constructor
// arguments and applied calls for the run's lifetime — bounded work for
// experiment-shaped runs; checkpointing the history is the noted cost of
// truly unbounded ones.
//
// Every timed decision the journal makes — the reconnect backoff
// schedule, the export-retry pacing, a server's close-drain grace, the RTT
// stamped into completions — rides a [clock.Clock] seam rather than the
// package time globals. [WithNetClock] threads one clock through the
// middleware, its clients and, via rmi.WithClock, the node daemons. The
// zero-config default is the wall clock, bit-identical to the pre-seam
// behaviour; installing a clock.Virtual puts every backoff and grace window
// under test control, which is what makes the chaos scenario matrix
// deterministic: failure scripts are pure functions of a seed, armed by
// request-count watermarks (rmi.Server.WatchRequests) and paced by the
// virtual clock's auto-advance pump instead of wall-clock sleeps.
//
// [DialNet] is the configuration seam for all of the above, and NetRMI's
// only constructor: it fixes the clock, fault policy, codec and
// stream count as functional options before dialing any node, so no call
// can observe a half-configured middleware.
//
// # Membership & health (elastic pool)
//
// Everything above addresses workers through a static NodeID → address
// table fixed at DialNet. The elastic pool (pool.go) replaces the table
// with live membership: rmi.NewRegistry is a servant any rmi.Server can
// host (cmd/poolctl serves a standalone one), worker daemons constructed
// with rmi.WithRegistry register there at startup and heartbeat on
// rmi.WithHeartbeat's interval (rmi.DefaultHeartbeatInterval when unset),
// and a graceful daemon shutdown deregisters before closing. The registry
// reads a member unhealthy once it has missed a few intervals' worth of
// beats (the registry's miss factor).
//
// [DialPool] dials the registry, seeds a NetRMI from the current healthy
// membership, and starts a reconciler that polls it ([WithPoolPoll]):
//
//   - Join: a newly registered daemon is added to the address table
//     ([NetRMI.AddNode]) and the farm's placement universe widens onto it
//     mid-run.
//   - Cordon: a member observed unhealthy [WithCordonAfter] consecutive
//     polls is cordoned ([NetRMI.SetCordon]) — no new placements, no
//     failover landings — while its established objects keep serving. A
//     node that heals inside the grace is uncordoned with its placements
//     intact, so a heartbeat flap costs nothing.
//   - Drain: once [WithDrainGrace] expires (immediately for a member that
//     deregistered or vanished from the registry), the pool drains the
//     node ([NetRMI.Drain]): its exports are re-created on survivors via
//     the failover machinery — constructor + history replay, journal
//     redirected — while the source may still be alive, so a planned
//     departure loses nothing. FaultStats.Drains counts these.
//
// The pool requires a fault policy (WithPoolNet(WithFaultPolicy(...)) —
// drains and failovers are the same machinery), and each pooled driver
// asks the registry for a private namespace: every export name carries a
// registry-allocated "d<N>/" prefix, so concurrent drivers sharing one pool
// never collide on bindings and Reset scopes itself to the driver's own
// names. A placement that races
// its node's death is self-healing: a submission finding a live export
// stranded on a dead peer re-homes it on a survivor (late failover)
// instead of orphaning the call.
//
// # Wire format & streams
//
// Package rmi frames every request and response through one [rmi.Codec]
// per connection, named by the connection's first byte: rmi.Dial picks the
// binary codec unless told otherwise, and the server answers each
// connection in the codec it opened with, so one node serves gob and binary
// clients at once. That covers every connection of the stack — [DialNet]
// peers, [DialPool]'s registry client, the daemons' heartbeats and the
// node-to-node forward lane of a [Topology] — with no option set.
// [WithCodec] (par) and rmi.WithCodec choose another codec (rmi.GobCodec()
// pins gob).
//
// The compact binary codec frames a uvarint body length, a frame kind and
// flag byte, then fixed-width little-endian fields — no per-frame type
// dictionary, so an []int32 pack costs 4 bytes per element on the wire
// where gob re-transmits varint-encoded values, and on a little-endian
// host the pack is copied as one block in each direction. A slice type a
// class declares through [Class.Wire] (type Frame []float64, []Frame)
// travels as its registered name in front of the same array encoding and
// arrives as the same concrete type. Values outside the fast-path kinds —
// structs, maps — carry a tagged gob payload, keeping the codecs
// value-equivalent (pinned by round-trip fuzz tests and a conformance cell
// whose gob driver runs beside the nodes' binary forward lanes).
//
// Frames are batched into writes by the traffic, in both directions of every
// connection (driver to node, the replies, the nodes' forward lanes): a
// frame written on an otherwise idle connection — no reply pending on the
// client side; nothing decoded-but-unanswered and nothing left in the read
// buffer on the node side — is flushed by its writer, so a lone synchronous
// call costs exactly one write each way and waits for nobody. Any other
// frame stays in the connection's buffer and wakes the connection's flusher
// goroutine, which writes out whatever has accumulated by the time it is
// scheduled: a single dispatcher goroutine keeping a 64-deep window of small
// calls in flight pays 3–6 writes per 64 calls each way, not 64. There is no
// timer and nothing to tune — a timer would put its period on every lone
// call's latency, and the batch the scheduler produces reinforces itself (k
// replies in one segment complete k calls, whose k follow-ups leave
// together). Frames are batched, never merged: the bytes and the message
// counts are what they were.
//
// One TCP connection multiplexes N request streams ([WithStreams],
// rmi.Stub.OnStream). Streams are FIFO lanes: the server dispatches each
// stream's requests in send order on its own lane, so two objects bound to
// different streams no longer head-of-line block each other while sharing
// the connection, its codec and its send window. Stream 0 is the control
// lane (exports, resets, legacy single-lane traffic). NetRMI assigns
// exported objects to streams round-robin; the fault layer journals,
// dedupes and replays per (stream, sequence) — a reconnect or
// reincarnation replays every stream's unacknowledged tail in stream order
// with per-stream sequence spaces intact, and a failed-over object keeps
// its stream on the new peer. The zero value (streams < 2) keeps the
// single pipelined lane, bit-identical to the pre-stream wire protocol.
//
// One more stream is reserved whatever the width: [NetRMI.InvokeParked]
// issues a call that may park at its object — a long-poll read, such as the
// streaming service's wait on its completion ledger — on a lane nothing else
// uses, so the wait holds up no other dispatch. It resolves the object's
// placement per call and stays outside the fault journal.
package par
