package par

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"aspectpar/internal/exec"
	"aspectpar/internal/rmi"
)

// This file is NetRMI's call journal: the one path every call takes — sync,
// windowed, void, and the creation protocol's control calls alike. A call is
// journaled per (peer, stream) under a sequence number from submission until
// its outcome is final (submit → transmit → onOutcome → settle); what happens
// when the transport fails underneath it is not a second implementation but a
// policy of this one (FaultPolicy), carried out by the recovery half in
// netrecover.go. Three mechanisms compose there:
//
//   - Reconnect + replay (same incarnation): when the connection dies, a
//     recovery goroutine re-dials under the bounded-backoff
//     rmi.ReconnectPolicy; if the session-epoch handshake shows the same
//     server incarnation (a transport blip — the node and its objects
//     survived), the unacknowledged journal is replayed with its original
//     sequence numbers and the server's at-most-once dedupe absorbs the calls
//     that were applied before the connection died.
//
//   - Reincarnation (same node, new epoch): a changed epoch means the node
//     restarted and every placed object — with all its accumulated state —
//     is gone. Recovery re-runs each object's creation protocol from the
//     journaled constructor arguments and replays its applied-call history in
//     order, reconstructing the state; re-execution is correct precisely
//     because the previous incarnation's effects vanished with it. Then the
//     unacknowledged calls are replayed.
//
//   - Placement failover (node unreachable): when the reconnect budget is
//     exhausted the peer is declared lost. Its objects are re-created on a
//     surviving node the same way (creation + history replay), the
//     registry placement is remapped — the middleware's NodeOf now reports
//     the surviving node — and the orphaned calls follow. When no surviving
//     node hosts the class, the journal is failed with a typed
//     noFailoverError that Join surfaces: fail fast, not silent loss.
//
// Fail-fast is the degenerate policy of the same path (FaultPolicy's zero
// value): no recovery rounds and no failover, so the first transport error
// drops the peer, fails the calls journaled on it and marks its objects dead.
// Such a middleware sends no session tag — the nodes do no dedupe work for it
// — and keeps nothing once a call has settled: no history, no checkpoint.
//
// Everything is guarded by a generation counter: NetRMI.Reset (a driver
// starting a fresh run) and Close bump it, and a recovery observing a stale
// generation abandons instead of resurrecting pre-reset exports. The node
// guards the same race from its side by rotating its session epoch on reset,
// so a replay that slips past the client-side check is rejected as stale.

// FaultPolicy decides what NetRMI's call journal does when the transport
// fails under it. The zero value is fail-fast: the first transport error on a
// peer fails the calls in flight on it and every later call to its objects.
type FaultPolicy struct {
	// Enabled turns reconnect/replay, state reconstruction and failover on.
	Enabled bool
	// Reconnect bounds each recovery round's re-dial schedule; the zero
	// value selects rmi.ReconnectPolicy's defaults (5 attempts, 5ms..250ms
	// exponential backoff).
	Reconnect rmi.ReconnectPolicy
	// CheckpointEvery bounds the replay journal: once an export's
	// applied-call history reaches this length, the journal asks the
	// object to Snapshot itself and truncates the history behind the
	// checkpoint, so reincarnation replays a checkpoint Restore plus a
	// short tail instead of the full history. Classes opt in by defining
	// Snapshot (no args, returns the state) and Restore (takes Snapshot's
	// results) methods; an object whose class lacks them simply keeps the
	// unbounded history. 0 disables checkpointing (bit-identical journals).
	CheckpointEvery int
}

// recoveryRounds is the number of full reconnect+replay cycles per failure
// before the peer is declared lost (a replay can itself hit a dying node).
const recoveryRounds = 2

// withDefaults resolves the policy the journal actually runs. A policy that
// is not Enabled is spelled out as data rather than tested for on the paths:
// one creation attempt, nothing checkpointed — whatever its other fields say.
// Whether recovery runs rounds and fails over at all follows Enabled.
func (p FaultPolicy) withDefaults() FaultPolicy {
	if !p.Enabled {
		return FaultPolicy{Reconnect: rmi.ReconnectPolicy{MaxAttempts: 1}}
	}
	return p
}

// FaultStats counts what recovery did — the observability a resilience
// mechanism needs to be trusted. Snapshot via NetRMI.FaultStats.
type FaultStats struct {
	// Reconnects counts successful re-dials (same or new incarnation).
	Reconnects int64
	// Replays counts journal entries re-executed after a reconnect —
	// unacknowledged calls and applied-history calls alike.
	Replays int64
	// Failovers counts objects re-created on a fresh incarnation: on their
	// own restarted node, or on a surviving node after placement failover.
	Failovers int64
	// DroppedPeers counts peers given up on after the recovery budget.
	DroppedPeers int64
	// Abandoned counts peers drained without replay because their
	// generation ended (Reset/Close raced the recovery). Tests use it as
	// the "recovery finished, nothing resurrected" signal.
	Abandoned int64
	// Drains counts live peers proactively migrated off their node
	// (NetRMI.Drain — the cordon/drain control-plane path, as opposed to
	// crash-triggered failover).
	Drains int64
	// Checkpoints counts Snapshot checkpoints taken to truncate export
	// histories (FaultPolicy.CheckpointEvery).
	Checkpoints int64
}

// faultError wraps a call the journal could not transparently recover. It is
// terminal: no recovery will run the call.
type faultError struct {
	Object string
	Method string
	Node   exec.NodeID
	Err    error
}

// Error implements error.
func (e *faultError) Error() string {
	return fmt.Sprintf("par: netrmi lost call %s.%s (node %d): %v", e.Object, e.Method, e.Node, e.Err)
}

// Unwrap implements errors.Is/As chaining.
func (e *faultError) Unwrap() error { return e.Err }

// noFailoverError reports that an exported object lost its node and no
// surviving node could host its class: recovery has nowhere to re-create it,
// so the run must fail fast. It surfaces through NetRMI's Join (and wrapped
// inside the FaultErrors delivered to the object's pending calls).
type noFailoverError struct {
	Object string
	Class  string
	Node   exec.NodeID
	Err    error
}

// Error implements error.
func (e *noFailoverError) Error() string {
	return fmt.Sprintf("par: netrmi cannot fail over %s (class %s) off node %d: %v", e.Object, e.Class, e.Node, e.Err)
}

// Unwrap implements errors.Is/As chaining.
func (e *noFailoverError) Unwrap() error { return e.Err }

// errPeerLost is the base cause of calls dropped with an unreachable peer
// (the fail-fast policy's budget is spent before it starts).
var errPeerLost = errors.New("peer unreachable: recovery budget spent")

// errMWReset marks calls invalidated by a middleware Reset racing recovery.
var errMWReset = errors.New("netrmi reset")

func errUnexported(method string) error {
	return fmt.Errorf("par: netrmi invoke on unexported object (%s)", method)
}

// peer fault states.
const (
	pfHealthy = iota
	pfRecovering
	pfDead
)

// netCall is one journaled invocation: it stays in its peer's in-flight
// journal from submission until its outcome is final, which is what makes
// replay after a connection loss possible at all. It is also the call's one
// record on the way: the rmi.Sink its wire outcome comes back to (Deliver)
// and the place its final outcome leaves from (conclude), so a call costs
// this allocation and no closure.
type netCall struct {
	fa     *netFaults
	seq    uint64
	stream uint32 // dispatch stream the call rides: its seq space and dedupe key
	ref    *netRef
	method string
	args   []any
	void   bool

	// Who waits for the final outcome — nobody, for a fire-and-forget void
	// call, whose terminal failure goes to the Join error list instead; else
	// exactly one of: a windowed caller's completion channel (done), the
	// export a Snapshot probe of the
	// journal's own checkpoints (ckpt; never recorded in the history it exists
	// to truncate), or the goroutine parked in Invoke (reply).
	done  exec.Chan
	ctx   exec.Context
	ckpt  *netExport
	reply parked

	// Set by transmit, read by Deliver: the journal the wire outcome returns
	// to, and the request's size for the traffic counters.
	pf      *peerFault
	gen     int64
	reqSize int64
}

// Deliver implements rmi.Sink: the wire outcome of the one transmit, on the
// connection's reader goroutine. The reply bytes of a value-returning call
// are approximated — every later pending response waits behind this — where
// re-encoding the results just for the traffic counter is too expensive.
func (c *netCall) Deliver(res []any, err error) {
	if !c.void {
		c.fa.m.stats.count(1, int64(approxReplySize(res)))
	} else if err == nil {
		c.fa.m.stats.count(2, c.reqSize+replyFloor)
	}
	c.fa.onOutcome(c.pf, c, c.gen, res, err)
}

// conclude hands the call's final outcome to whoever waits for it — nobody,
// for a void call. The journal calls it exactly once, after taking the call
// off its books.
func (c *netCall) conclude(res []any, err error) {
	switch {
	case c.void:
	case c.done != nil:
		c.done.Send(c.ctx, &Completion{res: res, err: err})
	case c.ckpt != nil:
		c.fa.checkpointed(c.ckpt, res, err)
	default:
		c.reply.Deliver(res, err)
	}
}

// parked is the synchronous face of the callback transport: one outcome and
// the one goroutine waiting for it. Arm it, hand it out as the rmi.Sink (or
// let netCall.conclude deliver to it), wait.
type parked struct {
	wg sync.WaitGroup
	o  outcome
}

// outcome is one call's final result as a value.
type outcome struct {
	res []any
	err error
}

func (p *parked) arm() { p.wg.Add(1) }

// Deliver implements rmi.Sink.
func (p *parked) Deliver(res []any, err error) {
	p.o = outcome{res, err}
	p.wg.Done()
}

func (p *parked) wait() outcome {
	p.wg.Wait()
	return p.o
}

// peerFault is one peer's recovery state plus its per-stream journals.
// Recovery (reconnect, reincarnation, failover) is a connection-level event
// and stays per peer; the journal — seq space, in-flight set, replay order —
// is per stream, because that is the server's dedupe granularity: sessions
// key on (client, stream) and each stream carries its own FIFO seq space.
type peerFault struct {
	node  exec.NodeID
	state int

	// journals maps stream id → that stream's journal. Stream 0 is the
	// control lane (exports, resets); objects multiplexed across streams
	// 1..n each journal on their own. Guarded by fa.mu; created lazily.
	journals map[uint32]*streamJournal

	// wired counts calls currently on the wire (transmitted, outcome not
	// yet back). A live drain quiesces on it: every wired call's effect is
	// in the history (or its entry back in the journal) before the drain
	// copies state to the target. Guarded by fa.mu.
	wired int
}

// streamJournal is one stream's half of the session contract with the node:
// its sequence counter and the unsettled calls.
type streamJournal struct {
	// sendMu serialises this stream's tagged posts, so the stream's wire
	// order always equals its sequence order — the invariant the server's
	// per-stream dedupe rests on. Per stream, not per peer: a full send
	// window on one stream must not stall submissions on the others. Held
	// only across seq assignment + post, never across a response wait;
	// always acquired before fa.mu, never while holding it.
	sendMu sync.Mutex

	nextSeq uint64
	calls   []*netCall // unsettled, in submission order (= replay order)
}

// netExport is the journal's record of one placed object: where it lives
// and how to reach it, plus — under a policy that can rebuild it — everything
// needed to re-create it: constructor arguments and the history of applied
// calls.
type netExport struct {
	ref      *netRef
	class    *Class
	node     exec.NodeID
	stub     *rmi.Stub // bound to stream; replaced when the object is re-homed
	stream   uint32    // dispatch stream the object's calls ride; kept across failover
	ctorArgs []any
	history  []histEntry
	dead     bool

	// checkpoint is the last Snapshot result (Restore's arguments);
	// history holds only the calls applied after it. ckptPending gates one
	// probe at a time; ckptOff remembers that the class refused Snapshot
	// (no such method), so it is never asked again.
	checkpoint  []any
	ckptPending bool
	ckptOff     bool

	// moving is the re-homing gate, claimed by reexport for the remap +
	// history-replay window: one move at a time, and submissions wait it out
	// rather than read or mutate the target's half-rebuilt state.
	moving bool
}

type histEntry struct {
	method string
	args   []any
}

// netFaults is the per-middleware journal state: policy, journals, export
// records, the generation guard and the stats.
type netFaults struct {
	m      *NetRMI
	policy FaultPolicy
	nonce  int64 // session-identity nonce, unique per middleware instance

	mu      sync.Mutex
	cond    *sync.Cond
	gen     int64
	closed  bool
	peers   map[exec.NodeID]*peerFault
	exports map[*netRef]*netExport
	errs    []error // terminal fault errors, drained by Join

	reconnects   atomic.Int64
	replays      atomic.Int64
	failovers    atomic.Int64
	droppedPeers atomic.Int64
	abandoned    atomic.Int64
	drains       atomic.Int64
	checkpoints  atomic.Int64
}

var faultNonce atomic.Int64

func newNetFaults(m *NetRMI, policy FaultPolicy) *netFaults {
	fa := &netFaults{
		m:      m,
		policy: policy.withDefaults(),
		// The nonce is the session identity the node's dedupe keys on, so two
		// middleware instances must never share one. Clock+counter alone can
		// collide across hosts (same nanosecond, counters both at 1), and a
		// colliding identity would let one driver's replays dedupe against
		// another's session — MixIdentity's random bits break the tie.
		nonce:   rmi.MixIdentity(m.clk.Now().UnixNano() + faultNonce.Add(1)),
		peers:   make(map[exec.NodeID]*peerFault),
		exports: make(map[*netRef]*netExport),
	}
	fa.cond = sync.NewCond(&fa.mu)
	return fa
}

// sessionID is the stable identity node sees from this middleware across
// reconnects — the dedupe key of its session.
func (fa *netFaults) sessionID(node exec.NodeID) string {
	return fmt.Sprintf("netrmi-%d/n%d", fa.nonce, node)
}

// stats snapshots the recovery counters. Fail-fast recovers nothing, so it
// reports nothing: giving a peer up on the first error is its normal
// behaviour, not a recovery event worth a counter.
func (fa *netFaults) stats() FaultStats {
	if !fa.policy.Enabled {
		return FaultStats{}
	}
	return FaultStats{
		Reconnects:   fa.reconnects.Load(),
		Replays:      fa.replays.Load(),
		Failovers:    fa.failovers.Load(),
		DroppedPeers: fa.droppedPeers.Load(),
		Abandoned:    fa.abandoned.Load(),
		Drains:       fa.drains.Load(),
		Checkpoints:  fa.checkpoints.Load(),
	}
}

// peerLocked returns node's fault record, creating it lazily. fa.mu held.
func (fa *netFaults) peerLocked(node exec.NodeID) *peerFault {
	pf := fa.peers[node]
	if pf == nil {
		pf = &peerFault{node: node, journals: make(map[uint32]*streamJournal)}
		fa.peers[node] = pf
	}
	return pf
}

// journalLocked returns stream's journal on pf, creating it lazily. fa.mu
// held.
func (fa *netFaults) journalLocked(pf *peerFault, stream uint32) *streamJournal {
	sj := pf.journals[stream]
	if sj == nil {
		sj = &streamJournal{}
		pf.journals[stream] = sj
	}
	return sj
}

// journalOf returns stream's journal on node's peer. fa.mu must NOT be held.
func (fa *netFaults) journalOf(node exec.NodeID, stream uint32) *streamJournal {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	return fa.journalLocked(fa.peerLocked(node), stream)
}

// stale reports whether gen no longer names the live generation.
func (fa *netFaults) stale(gen int64) bool {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	return gen != fa.gen || fa.closed
}

// trackExport records a fresh export: its stub (already bound to the
// dispatch stream its calls ride — preserved across reincarnation/failover,
// so a replayed call carries the same (stream, seq) dedupe key shape) and
// its re-creation recipe.
func (fa *netFaults) trackExport(ref *netRef, class *Class, ctorArgs []any, stub *rmi.Stub, stream uint32) {
	fa.mu.Lock()
	fa.exports[ref] = &netExport{
		ref: ref, class: class, node: ref.Node, stub: stub, stream: stream,
		ctorArgs: append([]any(nil), ctorArgs...),
	}
	fa.mu.Unlock()
}

// stubOf resolves the remote stub currently behind an exported reference.
func (fa *netFaults) stubOf(method string, obj any) (*rmi.Stub, error) {
	ref, _ := obj.(*netRef)
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if exp := fa.exports[ref]; exp != nil {
		return exp.stub, nil
	}
	return nil, errUnexported(method)
}

// exportsOn snapshots the live exports currently placed on node, in a
// stable (name) order so recovery is reproducible. fa.mu must NOT be held.
func (fa *netFaults) exportsOn(node exec.NodeID) []*netExport {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	var out []*netExport
	for _, exp := range fa.exports {
		if exp.node == node && !exp.dead {
			out = append(out, exp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ref.Name < out[j].ref.Name })
	return out
}

// --- Submission --------------------------------------------------------------

// submit journals one call and transmits it, unless its peer is recovering
// (the recovery loop transmits queued entries in order) or lost (the call is
// delivered failed immediately).
func (fa *netFaults) submit(call *netCall) {
	for {
		fa.mu.Lock()
		exp := fa.exports[call.ref]
		if exp == nil {
			fa.mu.Unlock()
			fa.finish(call, nil, errUnexported(call.method))
			return
		}
		for exp.moving && !fa.closed {
			// Mid re-homing: the new placement hosts a half-rebuilt object
			// until the history replay finishes. No locks held but fa.mu (which
			// Wait releases), so the replay can make progress.
			fa.cond.Wait()
		}
		if exp.dead {
			node := exp.node
			fa.mu.Unlock()
			fa.deliverOrphan(call, node, errPeerLost)
			return
		}
		node := exp.node
		stream := exp.stream
		pf := fa.peerLocked(node)
		sj := fa.journalLocked(pf, stream)
		fa.mu.Unlock()

		sj.sendMu.Lock()
		fa.mu.Lock()
		if fa.exports[call.ref] != exp || exp.dead || exp.node != node || exp.moving {
			// The placement moved (failover), started moving, or the journal
			// generation ended while we queued for the stream's send slot:
			// resolve again.
			fa.mu.Unlock()
			sj.sendMu.Unlock()
			continue
		}
		if pf.state == pfDead {
			fa.mu.Unlock()
			sj.sendMu.Unlock()
			if fa.lateFailover(exp, node) {
				continue // the export found a new home: re-resolve and transmit
			}
			fa.deliverOrphan(call, node, errPeerLost)
			return
		}
		sj.nextSeq++
		call.seq = sj.nextSeq
		call.stream = stream
		sj.calls = append(sj.calls, call)
		send := pf.state == pfHealthy
		if send {
			pf.wired++ // on the wire from here: onOutcome unwires exactly once per transmit
		}
		gen, stub := fa.gen, exp.stub
		fa.mu.Unlock()
		if send {
			// Transmit inside the stream's send section: the stream's wire
			// order == its seq order.
			fa.transmit(pf, call, gen, stub)
			if !fa.policy.Enabled {
				// Nothing will ever replay it, so the journal entry
				// need not pin the payload (a 400 KB pack, times the send
				// window) until the acknowledgement.
				call.args = nil
			}
		} // else: the recovery loop drains the journals, this entry included
		sj.sendMu.Unlock()
		return
	}
}

// transmit puts one journaled call on the wire, with the call itself as the
// sink its outcome — including the transport failures that start recovery —
// comes back to (netCall.Deliver, then onOutcome). Void calls take the one-way
// windowed lane (bounded by the client's ack-clocked flow-control window) with
// a per-call acknowledgement.
func (fa *netFaults) transmit(pf *peerFault, call *netCall, gen int64, stub *rmi.Stub) {
	call.pf, call.gen = pf, gen
	call.reqSize = int64(fa.m.sizer.Size(call.args))
	if call.void {
		stub.SendSeq(call.method, call.seq, call, call.args...)
		return
	}
	fa.m.stats.count(1, call.reqSize)
	stub.InvokeSeq(call.method, call.seq, call, call.args...)
}

// onOutcome classifies one wire outcome: executed calls settle, transport
// failures leave the entry journaled and start the peer's recovery — whose
// budget, under the fail-fast policy, is already spent.
func (fa *netFaults) onOutcome(pf *peerFault, call *netCall, gen int64, res []any, err error) {
	err = staleAsFault(call, pf.node, err)
	fa.mu.Lock()
	pf.wired--
	fa.cond.Broadcast() // a drain may be quiescing on wired == 0, a Join on the journal
	if err == nil || isFinal(err) || gen != fa.gen || fa.closed {
		live := fa.settleLocked(pf, call, err)
		fa.mu.Unlock()
		if live {
			call.conclude(res, err)
		}
		return
	}
	// Transport failure: the call may or may not have been applied — exactly
	// what the journal + server-side dedupe exist to disambiguate.
	start := pf.state == pfHealthy
	if start {
		pf.state = pfRecovering
	}
	fa.mu.Unlock()
	if start {
		go fa.recover(pf, gen)
	}
}

// isExecuted reports whether err proves the server dispatched the call (a
// servant-level failure travelled back on a healthy connection).
func isExecuted(err error) bool {
	var re *rmi.RemoteError
	return errors.As(err, &re)
}

// isFinal reports whether err settles a call for good rather than sending it
// through recovery: the server executed it, or refused it as a stale-session
// replay.
func isFinal(err error) bool {
	return isExecuted(err) || errors.Is(err, rmi.ErrStaleSession)
}

// staleAsFault turns a stale-session rejection into the terminal faultError
// its caller sees: the node's session epoch rotated under the call (a reset
// raced it), so the journal entry is for a session that no longer exists and
// must never be replayed into the fresh one. Other errors pass through.
func staleAsFault(call *netCall, node exec.NodeID, err error) error {
	if errors.Is(err, rmi.ErrStaleSession) {
		return &faultError{Object: call.ref.Name, Method: call.method, Node: node, Err: err}
	}
	return err
}

// settle removes a journal entry — the call's outcome is final — records the
// applied-call history used for state reconstruction, and delivers. A call
// already settled elsewhere (reset drain, close) is left alone.
func (fa *netFaults) settle(pf *peerFault, call *netCall, res []any, err error) {
	fa.mu.Lock()
	live := fa.settleLocked(pf, call, err)
	fa.cond.Broadcast()
	fa.mu.Unlock()
	if live {
		call.conclude(res, err)
	}
}

// settleLocked is settle's bookkeeping half; it reports whether the entry was
// still journaled (the caller then broadcasts, and delivers to a waiting
// caller outside the lock).
// The history is kept only under a policy that could ever replay it. fa.mu
// held.
func (fa *netFaults) settleLocked(pf *peerFault, call *netCall, err error) bool {
	sj := pf.journals[call.stream]
	if sj == nil || !dropLocked(sj, call) {
		return false
	}
	if err != nil && call.void {
		// A void call's terminal failure goes on the Join list in the same
		// critical section that takes it off the journal: a Join the emptied
		// journal wakes must already find it there.
		fa.errs = append(fa.errs, err)
	}
	if err == nil && call.ckpt == nil && fa.policy.Enabled {
		if exp := fa.exports[call.ref]; exp != nil && !exp.dead {
			exp.history = append(exp.history, histEntry{method: call.method, args: call.args})
			if fa.policy.CheckpointEvery > 0 && !exp.ckptOff && !exp.ckptPending &&
				len(exp.history) >= fa.policy.CheckpointEvery {
				exp.ckptPending = true
				go fa.submit(&netCall{fa: fa, ref: exp.ref, method: "Snapshot", ckpt: exp})
			}
		}
	}
	return true
}

// checkpointed takes the outcome of a Snapshot probe, which bounds one
// export's replay journal: the probe rides the object's own dispatch stream,
// so by the time its outcome is concluded here, every call the server applied
// before the snapshot has settled into the history — per-stream FIFO plus
// in-order response delivery make "the history at delivery time" exactly the
// state the snapshot captured, and truncating behind it is safe. A class that
// does not define Snapshot answers with a RemoteError; the export remembers
// (ckptOff) and keeps its unbounded history.
func (fa *netFaults) checkpointed(exp *netExport, res []any, err error) {
	fa.mu.Lock()
	exp.ckptPending = false
	fa.cond.Broadcast() // a Join may be waiting for the probe to conclude
	if err != nil {
		// Only a servant-level refusal disables checkpointing; a
		// transport-path failure leaves the gate open for a retry after the
		// next applied call.
		if isExecuted(err) {
			exp.ckptOff = true
		}
		fa.mu.Unlock()
		return
	}
	if exp.dead {
		fa.mu.Unlock()
		return
	}
	// Non-nil even for an empty snapshot: nil means "no checkpoint".
	exp.checkpoint = append(make([]any, 0, len(res)), res...)
	exp.history = nil
	fa.mu.Unlock()
	fa.checkpoints.Add(1)
}

// dropLocked removes call from its stream's journal and reports whether it
// was still there. Acknowledgements arrive in submission order, so the scan
// ends at the first entry. fa.mu held.
func dropLocked(sj *streamJournal, call *netCall) bool {
	i := slices.Index(sj.calls, call)
	if i < 0 {
		return false
	}
	sj.calls = slices.Delete(sj.calls, i, i+1) // zeroes the vacated slot: the arguments are not retained
	return true
}

// finish hands a call's final outcome to its caller; fire-and-forget void
// calls report terminal failures through the Join error list instead.
func (fa *netFaults) finish(call *netCall, res []any, err error) {
	call.conclude(res, err)
	if call.void && err != nil {
		fa.recordErr(err)
	}
}

func (fa *netFaults) recordErr(err error) {
	fa.mu.Lock()
	fa.errs = append(fa.errs, err)
	fa.cond.Broadcast()
	fa.mu.Unlock()
}

// deliverOrphan fails one call against a lost peer.
func (fa *netFaults) deliverOrphan(call *netCall, node exec.NodeID, cause error) {
	fa.finish(call, nil, &faultError{Object: call.ref.Name, Method: call.method, Node: node, Err: cause})
}

// callSync performs one session-tracked call synchronously on wire's stream,
// outside the journal: control calls, journal replays and history replays
// all go through here. Sequence assignment and post share the stream's send
// section — the stream's wire order equals its sequence order even when
// healthy submissions to the same stream (a failover target carrying live
// traffic) interleave — while the response wait happens outside it. A
// non-zero seq is reused verbatim: a same-epoch replay must carry the
// sequence number of the original, so a first attempt that was applied
// before its acknowledgement was lost dedupes instead of executing twice
// (or, for an export, failing with a duplicate binding); zero draws a fresh
// number from wire's counter. The seq used is returned.
func (fa *netFaults) callSync(stub *rmi.Stub, wire *streamJournal, seq uint64, method string, args []any) (uint64, outcome) {
	var reply parked
	reply.arm()
	wire.sendMu.Lock()
	if seq == 0 {
		fa.mu.Lock()
		wire.nextSeq++
		seq = wire.nextSeq
		fa.mu.Unlock()
	}
	stub.InvokeSeq(method, seq, &reply, args...)
	wire.sendMu.Unlock()
	return seq, reply.wait()
}

// --- Lifecycle ---------------------------------------------------------------

// invalidate ends the current generation: active recoveries abandon at
// their next step, journals drain with cause, and the export records are
// forgotten. Reset and Close both route through here.
func (fa *netFaults) invalidate(cause error) {
	fa.mu.Lock()
	fa.gen++
	if errors.Is(cause, rmi.ErrClosed) {
		fa.closed = true
	}
	peers := fa.peers
	fa.peers = make(map[exec.NodeID]*peerFault)
	fa.exports = make(map[*netRef]*netExport)
	var calls []*netCall
	for _, pf := range peers {
		calls = append(calls, fa.drainLocked(pf)...)
		pf.state = pfDead
	}
	fa.cond.Broadcast()
	fa.mu.Unlock()
	for _, call := range calls {
		call.conclude(nil, cause)
	}
}

// join blocks until every peer is quiescent — no recovery running, no
// journaled call unsettled, no checkpoint probe scheduled but not yet
// concluded — and returns the terminal fault errors.
func (fa *netFaults) join() error {
	fa.mu.Lock()
	for fa.busyLocked() {
		fa.cond.Wait()
	}
	errs := fa.errs
	fa.errs = nil
	fa.mu.Unlock()
	return errors.Join(errs...)
}

func (fa *netFaults) busyLocked() bool {
	// settleLocked starts a probe on a goroutine that may not have journaled
	// it yet; the flag covers the probe from scheduling to conclusion.
	for _, exp := range fa.exports {
		if exp.ckptPending {
			return true
		}
	}
	for _, pf := range fa.peers {
		if pf.state == pfRecovering {
			return true
		}
		for _, sj := range pf.journals {
			if len(sj.calls) > 0 {
				return true
			}
		}
	}
	return false
}

func (fa *netFaults) quiet() bool {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	return !fa.busyLocked()
}
