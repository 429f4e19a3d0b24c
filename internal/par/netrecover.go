package par

import (
	"fmt"
	"sort"

	"aspectpar/internal/exec"
	"aspectpar/internal/rmi"
)

// This file is the recovery half of NetRMI's call journal (netfault.go):
// what the journal does, within the FaultPolicy's budget, once a transport
// failure has left calls unsettled — reconnect and replay, reincarnate,
// fail over to a survivor, or give the peer up — plus the two placement
// moves built from the same parts: the retried creation protocol and the
// live drain.

// recover is the per-peer recovery loop: reconnect, then replay (same
// epoch), reincarnate + replay (new epoch), or fail the peer over when the
// budget is spent — immediately, under the fail-fast policy, whose budget is
// zero rounds. Exactly one recovery goroutine runs per peer at a time
// (guarded by the pfRecovering state).
func (fa *netFaults) recover(pf *peerFault, gen int64) {
	// Nothing is transmitted to a recovering peer, but a submission that chose
	// to transmit just before the failure may not have posted yet — it can be
	// parked on the send window, or simply descheduled. Reconnecting under it
	// would let that post land on the NEW connection, under its original
	// sequence number, while the replay below re-sends the same entry under a
	// fresh one: applied twice, or applied to an object not rebuilt yet. On
	// the dead connection every such post fails at once, so wait them out.
	fa.mu.Lock()
	fa.quiesceLocked(pf)
	fa.mu.Unlock()
	client := fa.m.clientOf(pf.node)
	for round := 0; client != nil && fa.policy.Enabled && round < recoveryRounds; round++ {
		if fa.stale(gen) {
			fa.abandon(pf)
			return
		}
		sameEpoch, err := client.Reconnect()
		if err != nil {
			break // unreachable within the dial budget
		}
		fa.reconnects.Add(1)
		if (sameEpoch || fa.reincarnate(pf, gen, pf.node)) && fa.drainJournal(pf, gen, pf.node, sameEpoch) {
			return // drainJournal healed the peer under the lock
		}
	}
	fa.failPeer(pf, gen)
}

// drainJournal empties pf's stream journals — streams in ascending id (a
// deterministic order, with the control lane replayed ahead of object
// traffic), each stream's entries in submission order — by re-executing
// every entry synchronously at target, where the entry's object now lives:
//
//   - pf's own node after a same-epoch reconnect (sameSeq): each entry keeps
//     its original (stream, seq), so the server's per-stream dedupe absorbs
//     the calls it had already applied;
//   - pf's own node as a new incarnation, or a surviving node taking the lost
//     peer's objects: sessions there started empty (or carry the survivor's
//     own traffic), so replays draw fresh sequence numbers on the target's
//     journal, every call keeping its stream.
//
// Entries submitted while the drain runs are part of it. When every journal
// is empty the peer is, atomically, healed (target is its own node) or left
// dead with no survivor work remaining (its objects moved away). A transport
// failure mid-replay returns false: the caller starts another round, or
// tries the next survivor.
func (fa *netFaults) drainJournal(pf *peerFault, gen int64, target exec.NodeID, sameSeq bool) bool {
	for {
		fa.mu.Lock()
		if gen != fa.gen || fa.closed {
			fa.mu.Unlock()
			return false
		}
		var sj *streamJournal
		var stream uint32
		for id, j := range pf.journals {
			if len(j.calls) > 0 && (sj == nil || id < stream) {
				sj, stream = j, id
			}
		}
		if sj == nil {
			pf.state = pfHealthy
			if target != pf.node {
				pf.state = pfDead
			}
			fa.cond.Broadcast()
			fa.mu.Unlock()
			return true
		}
		call := sj.calls[0]
		exp := fa.exports[call.ref]
		if exp.dead {
			// Nothing to replay it on: the object could not be rebuilt.
			dropLocked(sj, call)
			fa.cond.Broadcast()
			fa.mu.Unlock()
			fa.deliverOrphan(call, pf.node, errPeerLost)
			continue
		}
		wire := fa.journalLocked(fa.peerLocked(target), stream)
		stub := exp.stub
		fa.mu.Unlock()
		seq := uint64(0)
		if sameSeq {
			seq = call.seq
		}
		_, o := fa.callSync(stub, wire, seq, call.method, call.args)
		if o.err != nil && !isFinal(o.err) {
			return false // transport failure: the target is (still) dying
		}
		if o.err == nil {
			fa.m.stats.count(2, int64(fa.m.sizer.Size(call.args)+approxReplySize(o.res)))
		}
		fa.replays.Add(1)
		fa.settle(pf, call, o.res, staleAsFault(call, pf.node, o.err))
	}
}

// quiesceLocked waits until none of pf's calls is on the wire. The caller
// holds the peer's recovering state, so no new transmit can start; every
// wired call's outcome — its reply, or the connection's failure — is on its
// way, and onOutcome broadcasts each. fa.mu held (Wait releases it).
func (fa *netFaults) quiesceLocked(pf *peerFault) {
	for pf.wired > 0 {
		fa.cond.Wait()
	}
}

// reincarnate re-creates every object placed on pf.node at target (the same
// node after a restart, a surviving node during failover) and replays each
// object's applied-call history in order, reconstructing the state the lost
// incarnation took with it. Re-execution is correct exactly because the
// previous incarnation's effects are gone.
func (fa *netFaults) reincarnate(pf *peerFault, gen int64, target exec.NodeID) bool {
	tp, err := fa.m.peer(target)
	if err != nil {
		return false
	}
	for _, exp := range fa.exportsOn(pf.node) {
		if fa.stale(gen) || !fa.reexport(exp, tp, target, gen) {
			return false
		}
	}
	return true
}

// reexport runs one object's creation protocol at target and replays its
// history there; on success the object's placement (registry, stub, the
// export record) is remapped.
func (fa *netFaults) reexport(exp *netExport, tp *netPeer, target exec.NodeID, gen int64) bool {
	// Claim the export's re-homing gate: from the remap below until the last
	// history entry lands, the target hosts a HALF-REBUILT object, and a live
	// submission slipping in between replay entries would read or mutate
	// partial state. submit waits the gate out (holding no stream send slot,
	// so the replay it is waiting on cannot deadlock against it).
	fa.mu.Lock()
	for exp.moving && !fa.closed {
		fa.cond.Wait()
	}
	if fa.closed {
		fa.mu.Unlock()
		return false
	}
	exp.moving = true
	fa.mu.Unlock()
	defer func() {
		fa.mu.Lock()
		exp.moving = false
		fa.cond.Broadcast()
		fa.mu.Unlock()
	}()
	name := exp.ref.Name
	ctlArgs := append([]any{exp.class.name, name}, exp.ctorArgs...)
	// Creation rides the control lane (stream 0).
	if _, o := fa.callSync(tp.ctl, fa.journalOf(target, 0), 0, rmi.CtlExportNew, ctlArgs); o.err != nil {
		if isExecuted(o.err) {
			// The node answered but refused — it does not host the class, or
			// the name is taken: nowhere to rebuild this object.
			fa.recordErr(&noFailoverError{Object: name, Class: exp.class.name, Node: exp.node, Err: o.err})
			fa.mu.Lock()
			exp.dead = true // submissions against it fail immediately
			fa.mu.Unlock()
			return true // other exports may still recover
		}
		return false
	}
	stub, err := tp.client.Lookup(name)
	if err != nil {
		return false
	}
	// The object keeps its dispatch stream across incarnations, so every
	// replayed and future call carries the same (stream, seq) key shape.
	stub = stub.OnStream(exp.stream)
	fa.mu.Lock()
	exp.stub, exp.node = stub, target
	history := append([]histEntry(nil), exp.history...)
	if exp.checkpoint != nil {
		// The journal was truncated behind a Snapshot: reconstruct from the
		// checkpoint first, then the short post-checkpoint tail.
		history = append([]histEntry{{method: "Restore", args: exp.checkpoint}}, history...)
	}
	fa.mu.Unlock()
	// The registry follows, so the middleware's NodeOf tracks the move. A
	// re-homed reference may be a pipeline stage: the installed topology now
	// points a predecessor at a stale placement, so schedule a re-push.
	fa.m.reg.setNode(exp.ref, target)
	fa.m.topoMarkDirty()
	fa.failovers.Add(1)
	wire := fa.journalOf(target, exp.stream)
	for _, h := range history {
		if fa.stale(gen) {
			return false
		}
		if _, o := fa.callSync(stub, wire, 0, h.method, h.args); o.err != nil {
			if !isExecuted(o.err) {
				return false
			}
			// The original application succeeded, the reconstruction did
			// not: the rebuilt state is incomplete — surface it.
			fa.recordErr(fmt.Errorf("par: netrmi history replay of %s.%s at node %d: %w", name, h.method, target, o.err))
			continue
		}
		fa.replays.Add(1)
	}
	return true
}

// exportNew is the creation protocol: the control call is session-tracked
// and retried through recovery, so a node crash mid-export — the driver
// placing objects while the chaos harness kills the node — is survived like
// any other failure. The retry reuses its sequence number: an export applied
// just before the connection died dedupes on replay.
//
// The retry loop runs on the policy's ReconnectPolicy budget (attempts and
// exponential backoff, waited out on the middleware's clock), not a schedule
// of its own: the operator who bounded how hard recovery re-dials a dead peer
// has bounded how hard placement does, too — and the fail-fast policy's
// budget is the one attempt.
func (fa *netFaults) exportNew(node exec.NodeID, name string, ctlArgs []any) (*rmi.Stub, exec.NodeID, error) {
	pol := fa.policy.Reconnect.WithDefaults()
	backoff := pol.BaseBackoff
	var seq uint64
	var seqEpoch int64
	var lastErr error
	dialFails := 0
	// retarget is creation-time placement failover: the object has not been
	// built anywhere yet, so the creation simply moves to a surviving node —
	// a fresh session there, nothing to dedupe — unless the policy is
	// fail-fast.
	retarget := func() bool {
		return fa.failoverTo(node, func(target exec.NodeID) bool {
			fa.failovers.Add(1)
			node, seq, seqEpoch, dialFails, backoff = target, 0, 0, 0, pol.BaseBackoff
			return true
		})
	}
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		p, err := fa.m.peer(node)
		if err != nil {
			lastErr = err
			// A node that has refused a session three times running has been
			// gone since before this object existed (dead at startup, or
			// partitioned before we ever reached it) — there is no journal to
			// recover, so retarget the creation to a member that does answer.
			// A transiently rebinding node loses nothing: the object runs on
			// the survivor either way.
			if dialFails++; dialFails >= 3 && retarget() {
				continue
			}
			// Otherwise it may be mid restart: back off on the policy's
			// schedule while a retry remains, then dial again.
			if attempt+1 < pol.MaxAttempts {
				fa.m.clk.Sleep(backoff)
				backoff = min(2*backoff, pol.MaxBackoff)
			}
			continue
		}
		dialFails = 0
		// Seq reuse is a same-incarnation contract: against a fresh epoch
		// there is nothing to dedupe (the first attempt's application died
		// with the node), and the recovery's own reincarnation calls have
		// already advanced the new session past our number — reusing it
		// would dedupe into a no-op and leave the name unbound.
		if ep := p.client.Epoch(); ep != seqEpoch {
			seq, seqEpoch = 0, ep
		}
		var o outcome
		seq, o = fa.callSync(p.ctl, fa.journalOf(node, 0), seq, rmi.CtlExportNew, ctlArgs)
		if err = o.err; err == nil {
			stub, lerr := p.client.Lookup(name)
			if lerr == nil {
				return stub, node, nil
			}
			err = lerr
		}
		if isFinal(err) {
			return nil, node, err // the node answered and refused: not a transport fault
		}
		lastErr = err
		if !fa.awaitRecovery(node) && !retarget() {
			return nil, node, err // the peer is gone for good, and so is the placement
		}
	}
	return nil, node, lastErr
}

// awaitRecovery kicks off (if needed) and waits out node's recovery,
// reporting whether the peer came back healthy.
func (fa *netFaults) awaitRecovery(node exec.NodeID) bool {
	fa.mu.Lock()
	pf := fa.peerLocked(node)
	if pf.state == pfHealthy {
		pf.state = pfRecovering
		go fa.recover(pf, fa.gen)
	}
	for pf.state == pfRecovering {
		fa.cond.Wait()
	}
	healthy := pf.state == pfHealthy
	fa.mu.Unlock()
	return healthy
}

// failPeer is the end of the reconnect budget: fail the journal over to a
// surviving node, or — fail-fast, or no survivor — drop the peer.
func (fa *netFaults) failPeer(pf *peerFault, gen int64) {
	// The peer itself is lost from here, wherever its objects end up. Counted
	// before the failover's drain can deliver a replayed call's reply: the
	// caller that reply wakes may read the stats at once.
	fa.droppedPeers.Add(1)
	moved := fa.failoverTo(pf.node, func(target exec.NodeID) bool {
		return fa.stale(gen) || fa.reincarnate(pf, gen, target) && fa.drainJournal(pf, gen, target, false)
	})
	if fa.stale(gen) {
		fa.abandon(pf)
		return
	}
	if moved {
		return
	}
	// No survivor could take the lost objects: typed, Join-visible.
	var terminal error
	if exps := fa.exportsOn(pf.node); fa.policy.Enabled && len(exps) > 0 {
		terminal = &noFailoverError{
			Object: exps[0].ref.Name, Class: exps[0].class.name, Node: pf.node,
			Err: errPeerLost,
		}
	}
	fa.dropPeer(pf, gen, terminal)
}

// failoverTo is the survivor walk every placement move off a lost node
// shares: offer take the failover candidates for node one by one until one
// takes the objects or none are left, and report whether one did. One failed
// candidate must not doom the move while another survivor exists: a target
// can itself be dying — a partitioned node still accepts dials, so the
// reachability probe passes and only the session traffic exposes it. Under
// the fail-fast policy there are no candidates.
func (fa *netFaults) failoverTo(node exec.NodeID, take func(target exec.NodeID) bool) bool {
	if !fa.policy.Enabled {
		return false
	}
	tried := map[exec.NodeID]bool{node: true}
	for {
		target, ok := fa.pickTarget(tried, true)
		if !ok {
			return false
		}
		if take(target) {
			return true
		}
		tried[target] = true
	}
}

// pickTarget selects the lowest live, reachable node outside avoid.
// Uncordoned nodes come first — a cordoned node is being drained or evicted,
// so moving objects onto it would just move them twice. With lastResort a
// live cordoned node is accepted when every other survivor is out: a cordon
// may be a health flap the pool lifts moments later, and moving the objects
// twice (the cordoned target's own drain re-migrates them) is strictly
// better than dropping them. The crash paths ask for that; a drain does not
// (with no clean target it aborts harmlessly and retries later).
func (fa *netFaults) pickTarget(avoid map[exec.NodeID]bool, lastResort bool) (exec.NodeID, bool) {
	ids := fa.m.nodeIDs()
	for _, cordoned := range []bool{false, true} {
		if cordoned && !lastResort {
			break
		}
		for _, n := range ids {
			if avoid[n] || fa.m.isCordoned(n) != cordoned {
				continue
			}
			fa.mu.Lock()
			dead := fa.peerLocked(n).state == pfDead
			fa.mu.Unlock()
			if dead {
				continue
			}
			if _, err := fa.m.peer(n); err == nil {
				return n, true
			}
		}
	}
	return 0, false
}

// drainNode proactively migrates a LIVE node's exports to a survivor — the
// cordon→drain step of the elastic pool, reusing the crash machinery
// (reincarnate + drainJournal) without waiting for the node to die. The
// ordering hazard a live drain adds over a crash is calls already on the
// wire: their effects would land on the source after the history snapshot
// and be lost on the target. So the drain first takes the peer's recovering
// state (submissions keep journaling but stop transmitting), then quiesces —
// waits for every wired call's outcome, which either settles into the
// history or leaves its entry journaled for the redirect — and only then
// copies state over. Failure reverts to the ordinary recovery loop so the
// queued entries still drain.
func (fa *netFaults) drainNode(node exec.NodeID) error {
	if !fa.policy.Enabled {
		// Fail-fast keeps no history to rebuild the objects from.
		return fmt.Errorf("par: netrmi drain of node %d needs a fault policy", node)
	}
	fa.mu.Lock()
	gen := fa.gen
	pf := fa.peerLocked(node)
	// A crash recovery may already own the peer; wait it out rather than
	// racing it for the recovering state.
	for pf.state == pfRecovering && gen == fa.gen && !fa.closed {
		fa.cond.Wait()
	}
	if gen != fa.gen || fa.closed {
		fa.mu.Unlock()
		return errMWReset
	}
	if pf.state == pfDead {
		fa.mu.Unlock()
		return nil // already failed over or dropped: nothing left to move
	}
	pf.state = pfRecovering
	fa.quiesceLocked(pf)
	if gen != fa.gen || fa.closed {
		fa.mu.Unlock()
		fa.abandon(pf)
		return errMWReset
	}
	fa.mu.Unlock()
	target, ok := fa.pickTarget(map[exec.NodeID]bool{node: true}, false)
	if !ok {
		// Nowhere to move the exports: hand the peer back healthy via the
		// recovery loop, which drains the entries queued while we held the
		// recovering state.
		go fa.recover(pf, gen)
		return fmt.Errorf("par: netrmi drain of node %d: no eligible target", node)
	}
	if fa.reincarnate(pf, gen, target) && fa.drainJournal(pf, gen, target, false) {
		fa.drains.Add(1)
		return nil
	}
	if fa.stale(gen) {
		fa.abandon(pf)
		return errMWReset
	}
	go fa.recover(pf, gen)
	return fmt.Errorf("par: netrmi drain of node %d to node %d failed", node, target)
}

// lateFailover re-homes one live export stranded on a dead peer. The strand
// is a creation/death race: the object's placement succeeded, but its export
// record went live only after the peer's failover (or drain) sweep had
// snapshotted exportsOn — so the sweep moved everything it could see, marked
// the peer dead, and left this object behind. Submissions detect the strand
// (live export, dead peer) and finish the move here: re-create on a survivor,
// replay history, remap — exactly reexport. Returns true when the export has
// a new home (submit re-resolves and transmits there); false means the call
// must be orphaned.
func (fa *netFaults) lateFailover(exp *netExport, node exec.NodeID) bool {
	fa.mu.Lock()
	for exp.moving && !fa.closed {
		fa.cond.Wait() // another mover is re-homing it: ride its result
	}
	gen := fa.gen
	if fa.closed || exp.dead {
		fa.mu.Unlock()
		return false
	}
	if exp.node != node {
		fa.mu.Unlock()
		return true // already re-homed (by the waited-out mover, or a sweep)
	}
	fa.mu.Unlock()
	return fa.failoverTo(node, func(target exec.NodeID) bool {
		tp, err := fa.m.peer(target)
		// reexport true covers the refusal path too (export marked dead):
		// the submit loop re-resolves and orphans against exp.dead.
		return err == nil && fa.reexport(exp, tp, target, gen)
	})
}

// dropPeer gives up on a peer: its journal is failed, its exports are dead,
// and the terminal error, if any, waits for Join.
func (fa *netFaults) dropPeer(pf *peerFault, gen int64, terminal error) {
	fa.mu.Lock()
	if gen != fa.gen || fa.closed {
		fa.mu.Unlock()
		fa.abandon(pf)
		return
	}
	pf.state = pfDead
	calls := fa.drainLocked(pf)
	for _, exp := range fa.exports {
		if exp.node == pf.node {
			exp.dead = true
		}
	}
	if terminal != nil {
		fa.errs = append(fa.errs, terminal)
	}
	cause := terminal
	if cause == nil {
		cause = errPeerLost
	}
	// A lost void call goes on the Join list with the drain, under the one
	// lock: a Join the emptied journal wakes must already find it there.
	waited := calls[:0]
	for _, call := range calls {
		if !call.void {
			waited = append(waited, call)
			continue
		}
		fa.errs = append(fa.errs, &faultError{Object: call.ref.Name, Method: call.method, Node: pf.node, Err: cause})
	}
	fa.cond.Broadcast()
	fa.mu.Unlock()
	for _, call := range waited {
		fa.deliverOrphan(call, pf.node, cause)
	}
}

// drainLocked empties every stream journal on pf, returning the calls —
// streams ascending, submission order within each — so failure delivery is
// deterministic. fa.mu held.
func (fa *netFaults) drainLocked(pf *peerFault) []*netCall {
	streams := make([]uint32, 0, len(pf.journals))
	for id := range pf.journals {
		streams = append(streams, id)
	}
	sort.Slice(streams, func(i, j int) bool { return streams[i] < streams[j] })
	var calls []*netCall
	for _, id := range streams {
		sj := pf.journals[id]
		calls = append(calls, sj.calls...)
		sj.calls = nil
	}
	return calls
}

// abandon drains a peer whose generation ended (Reset/Close raced the
// recovery): entries are failed with the reset marker and nothing is
// replayed — resurrecting pre-reset exports is exactly the bug the guard
// exists for.
func (fa *netFaults) abandon(pf *peerFault) {
	fa.abandoned.Add(1)
	fa.mu.Lock()
	pf.state = pfDead
	calls := fa.drainLocked(pf)
	fa.cond.Broadcast()
	fa.mu.Unlock()
	for _, call := range calls {
		call.conclude(nil, &faultError{Object: call.ref.Name, Method: call.method, Node: pf.node, Err: errMWReset})
	}
}
