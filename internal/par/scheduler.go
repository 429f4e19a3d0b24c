package par

import (
	"sync"
	"sync/atomic"
	"time"

	"aspectpar/internal/exec"
)

// This file implements the work-stealing adaptive scheduler behind the
// stealing farm (FarmConfig.Stealing). The paper's static farms lose
// scalability once pack costs are heterogeneous — a pre-assigned heavy pack
// pins its worker while the others drain and idle. The scheduler replaces
// static assignment with per-worker deques and three adaptive mechanisms:
//
//   - steal-half victim selection: an out-of-work worker scans the other
//     deques (round-robin from its right neighbour, which keeps virtual-time
//     runs deterministic) and transfers the back half of the first non-empty
//     deque it finds;
//   - dynamic pack sizing: packs start coarse and split lazily, and only
//     under demand, in two places. Owner side, a worker popping the LAST
//     pack of its own deque splits it — leaving one half queued and
//     stealable — but only while at least one worker is hungry (mid steal
//     scan or backing off empty-handed), so balanced runs never pay the
//     extra per-pack dispatch/communication cost. Thief side, a steal
//     request arriving at a victim with a single queued pack splits that
//     hot pack and thief and victim take one half each. Granularity
//     therefore refines exactly where and when imbalance appears, bounded
//     below by MinSplit;
//   - idle/backoff protocol: a worker that found nothing first yields the
//     processor (exec.Yield — Gosched on the real backend, a same-instant
//     reschedule under virtual time) and then sleeps with exponential
//     backoff, so idling is cheap on real hardware and cannot livelock the
//     discrete-event engine.
//
// The scheduler runs identically on both exec backends: it only uses
// exec.Context operations (Spawn, Sleep, Compute) plus host-side locks that
// are never held across a blocking call.

// StealConfig tunes the work-stealing scheduler. The zero value selects
// defaults suitable for pack payloads of a few thousand elements.
type StealConfig struct {
	// MinSplit is the minimum number of elements per half when a pack's
	// single []int32 or Lazy payload argument (the shape of the paper's
	// number packs) is split in two; 0 selects 64.
	MinSplit int
}

func (c StealConfig) withDefaults() StealConfig {
	if c.MinSplit <= 0 {
		c.MinSplit = 64
	}
	return c
}

const (
	// stealOverhead is the virtual CPU time charged to the thief per
	// successful steal transaction (locking the victim, moving ownership).
	stealOverhead = 2 * time.Microsecond
	// maxIdleBackoff caps the idle worker's exponential backoff sleep.
	maxIdleBackoff = 64 * time.Microsecond
)

// StealStats reports what the scheduler did during a run; the accounting
// invariant Executed == Seeded + Splits ("no pack lost, none run twice") is
// asserted by the property tests.
type StealStats struct {
	// Seeded is the number of packs handed to the scheduler by the split
	// advice.
	Seeded int64
	// Executed is the number of packs run to completion (seeded + halves
	// created by splits).
	Executed int64
	// Steals counts successful steal transactions.
	Steals int64
	// Stolen counts packs that changed owner through a steal.
	Stolen int64
	// Splits counts packs split in two by a steal request or the owner-side
	// fringe rule.
	Splits int64
	// FailedScans counts full victim scans that found nothing to steal.
	FailedScans int64
}

// stealPack is one schedulable unit: the argument list of one
// partition-generated call.
type stealPack struct {
	args []any
}

// stealDeque is one worker's pack queue. The owner pops from the front;
// thieves take from the back, so owner and thieves contend only when the
// deque is nearly empty. The mutex is a host lock: critical sections never
// block, so under the cooperative virtual-time backend it never contends and
// costs nothing, while under the real backend it is the required fence.
type stealDeque struct {
	mu    sync.Mutex
	packs []stealPack
}

func (d *stealDeque) pushBack(pks ...stealPack) {
	d.mu.Lock()
	d.packs = append(d.packs, pks...)
	d.mu.Unlock()
}

// stealScheduler coordinates one dispatch round: the deques, the outstanding
// pack count that drives termination, and the statistics.
type stealScheduler struct {
	cfg StealConfig
	// ws is one immutable snapshot of the round's worker deques, published
	// through an atomic pointer so a node joining mid-run can widen the set
	// — copy, append, swap — while the worker loops read whatever snapshot
	// they loaded without a lock. The deque objects themselves are stable
	// across snapshots (the copy shares the pointers), so an index obtained
	// from one snapshot still names the same deque in a newer one; a late
	// snapshot simply has more indices. growMu serialises the growth.
	ws     atomic.Pointer[[]*stealDeque]
	growMu sync.Mutex

	// remaining counts packs enqueued but not yet finished. Every pack
	// increments it before it becomes visible (initial seeding, the new
	// half of a split) and decrements it exactly once after execution, so
	// remaining reaching zero means all work is done and is the workers'
	// termination signal.
	remaining atomic.Int64
	// hungry counts workers currently out of local work — the steal-demand
	// signal that arms owner-side splitting.
	hungry atomic.Int64

	seeded      atomic.Int64
	executed    atomic.Int64
	steals      atomic.Int64
	stolen      atomic.Int64
	splits      atomic.Int64
	failedScans atomic.Int64
}

func newStealScheduler(cfg StealConfig, workers int) *stealScheduler {
	s := &stealScheduler{cfg: cfg.withDefaults()}
	deques := make([]*stealDeque, workers)
	for i := range deques {
		deques[i] = &stealDeque{}
	}
	s.ws.Store(&deques)
	return s
}

// workers returns the current worker-deque snapshot.
func (s *stealScheduler) workers() []*stealDeque { return *s.ws.Load() }

// addWorker widens the round by one worker with an empty deque, returning
// the new worker's index. Copy-on-write: in-flight scans keep their old
// snapshot and simply do not see the newcomer until they reload; the
// newcomer starts hungry and steals its first pack.
func (s *stealScheduler) addWorker() int {
	s.growMu.Lock()
	defer s.growMu.Unlock()
	old := s.workers()
	i := len(old)
	deques := make([]*stealDeque, i+1)
	copy(deques, old)
	deques[i] = &stealDeque{}
	s.ws.Store(&deques)
	return i
}

// seed distributes the initial packs round-robin over the worker deques.
// Coarse initial packs are fine — splitting refines them on demand — except
// that every worker should start with something: fewer packs than workers
// would leave the surplus workers hungry before any owner has even popped,
// so seed splits the coarse packs until each worker can be dealt one (or
// nothing splits any further).
func (s *stealScheduler) seed(parts [][]any) {
	packs := make([]stealPack, len(parts))
	for i, part := range parts {
		packs[i] = stealPack{args: part}
	}
	deques := s.workers()
	s.remaining.Add(int64(len(packs)))
	s.seeded.Add(int64(len(packs)))
	for len(packs) > 0 && len(packs) < len(deques) {
		grew := false
		for i := 0; i < len(packs) && len(packs) < len(deques); i++ {
			if a, b, ok := splitInt32Payload(packs[i].args, s.cfg.MinSplit); ok {
				packs[i] = stealPack{args: a}
				packs = append(packs, stealPack{args: b})
				s.remaining.Add(1)
				s.splits.Add(1)
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	for i, pk := range packs {
		deques[i%len(deques)].pushBack(pk)
	}
}

// takeWindowed pops worker i's next local pack. Popping the last local pack
// while some other worker is hungry applies the owner-side dynamic sizing
// rule: split it (when big enough) and leave one half queued, so a worker
// about to disappear into a coarse pack exposes stealable work first.
// remaining grows before the new half becomes visible, keeping the
// termination counter conservative. With packs already in flight
// (pipelined), the LAST local pack is not prefetched: deferred reports that
// it exists but stays queued — visible to thieves and to owner-side
// splitting — until the worker's window drains. Prefetching it would claim
// work an idle worker may need: a pack in flight can no longer be stolen, so
// eager claiming at the fringe re-creates static assignment's imbalance.
func (s *stealScheduler) takeWindowed(i int, pipelined bool) (pk stealPack, ok, deferred bool) {
	deques := s.workers()
	d := deques[i]
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.packs) == 0 {
		return stealPack{}, false, false
	}
	if pipelined && len(d.packs) == 1 && len(deques) > 1 {
		// Deferring only makes sense while a thief could exist: a
		// single-worker farm has none, and deferring there just drains the
		// pipe before the tail pack — the fringe-rule fix of ISSUE 4.
		return stealPack{}, false, true
	}
	pk = d.packs[0]
	d.packs = d.packs[1:]
	if len(d.packs) == 0 && s.hungry.Load() > 0 {
		if a, b, ok := splitInt32Payload(pk.args, s.cfg.MinSplit); ok {
			pk = stealPack{args: a}
			s.remaining.Add(1)
			d.packs = append(d.packs, stealPack{args: b})
			s.splits.Add(1)
		}
	}
	return pk, true, false
}

// trySteal scans the other deques starting at worker i's right neighbour and
// takes work from the first deque that has any: the back half when several
// packs queue there, one half of a freshly split pack when only one does.
// Scan order is a fixed round-robin, keeping virtual-time runs
// deterministic. A successful steal charges the thief's overhead.
func (s *stealScheduler) trySteal(ctx exec.Context, i int) (stealPack, bool) {
	deques := s.workers()
	n := len(deques)
	for off := 1; off < n; off++ {
		if pk, ok := s.stealFrom(deques, deques[(i+off)%n], i); ok {
			s.steals.Add(1)
			ctx.Compute(stealOverhead)
			return pk, true
		}
	}
	s.failedScans.Add(1)
	return stealPack{}, false
}

// stealFrom attempts one steal transaction against victim deque v on behalf
// of thief i. It returns the pack the thief should execute next; surplus
// stolen packs are re-queued on the thief's own deque (resolved through the
// caller's snapshot — deque identity is stable across growth).
func (s *stealScheduler) stealFrom(deques []*stealDeque, v *stealDeque, i int) (stealPack, bool) {
	v.mu.Lock()
	switch n := len(v.packs); {
	case n >= 2:
		// Steal-half: take the back half, leaving the front (older, possibly
		// larger) packs with their owner.
		k := n / 2
		stolen := append([]stealPack(nil), v.packs[n-k:]...)
		v.packs = v.packs[:n-k]
		v.mu.Unlock()
		s.stolen.Add(int64(k))
		if len(stolen) > 1 {
			deques[i].pushBack(stolen[1:]...)
		}
		return stolen[0], true
	case n == 1:
		// Dynamic pack sizing: the victim's single queued pack is hot —
		// split it so both sides keep working. remaining grows by one
		// BEFORE the new half escapes the critical section, so the
		// termination counter can lag low but never reads zero while a
		// pack is outstanding.
		if a, b, ok := splitInt32Payload(v.packs[0].args, s.cfg.MinSplit); ok {
			v.packs[0] = stealPack{args: a}
			s.remaining.Add(1)
			v.mu.Unlock()
			s.splits.Add(1)
			s.stolen.Add(1)
			return stealPack{args: b}, true
		}
		// Too small to split: migrate the whole queued pack. The victim is
		// busy with its current pack; its queued one moves to the idle
		// thief.
		pk := v.packs[0]
		v.packs = v.packs[:0]
		v.mu.Unlock()
		s.stolen.Add(1)
		return pk, true
	default:
		v.mu.Unlock()
		return stealPack{}, false
	}
}

// drained reports whether every pack of the round has finished — the
// workers' termination signal.
func (s *stealScheduler) drained() bool { return s.remaining.Load() == 0 }

// finish records the completion of one pack.
func (s *stealScheduler) finish() {
	s.executed.Add(1)
	if s.remaining.Add(-1) < 0 {
		panic("par: steal scheduler finished more packs than it was given")
	}
}

// add accumulates another round's counters.
func (s *StealStats) add(o StealStats) {
	s.Seeded += o.Seeded
	s.Executed += o.Executed
	s.Steals += o.Steals
	s.Stolen += o.Stolen
	s.Splits += o.Splits
	s.FailedScans += o.FailedScans
}

// stats snapshots the counters.
func (s *stealScheduler) stats() StealStats {
	return StealStats{
		Seeded:      s.seeded.Load(),
		Executed:    s.executed.Load(),
		Steals:      s.steals.Load(),
		Stolen:      s.stolen.Load(),
		Splits:      s.splits.Load(),
		FailedScans: s.failedScans.Load(),
	}
}
