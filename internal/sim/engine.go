// Package sim is a deterministic discrete-event simulation kernel.
//
// It exists because the paper's evaluation ran on hardware we do not have
// (seven dual-Xeon 3.2 GHz nodes on Gigabit Ethernet), and a wall-clock run
// on whatever machine runs the tests would measure that machine, not the
// paper's. The kernel executes the real woven application code inside
// cooperative processes while time is virtual: exactly one process runs at
// any instant, every wake-up flows through a totally ordered event queue
// (virtual time, then sequence number), so a run is bit-reproducible.
//
// Processes are goroutines synchronised with the engine by a two-channel
// handshake; blocking operations (Sleep, Mutex.Lock, Resource.Acquire,
// channel operations, WaitGroup.Wait) park the process and return control to
// the scheduler. The engine detects global deadlock: if the event queue
// drains while non-daemon processes are still parked on synchronisation, Run
// reports them by name.
//
// A run ends with its processes: before Run returns — normally, on deadlock
// or on a panic — it unwinds every process still parked (server daemons
// waiting for requests, the parked processes of a failed run), running their
// deferred calls, so no goroutine of a finished simulation outlives it.
package sim

import (
	"container/heap"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Engine is a discrete-event scheduler. Create with NewEngine, add initial
// processes with Spawn, then call Run. Engines are not safe for concurrent
// external use: Spawn may be called before Run or from inside a running
// process (where the cooperative discipline guarantees exclusivity).
type Engine struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	parked chan struct{}

	nextPID int
	live    map[*Proc]struct{} // started or startable processes, daemons included
	daemons int                // live daemon processes
	blocked map[*Proc]struct{}

	failure   error
	running   bool
	unwinding bool
}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine {
	return &Engine{
		parked:  make(chan struct{}),
		live:    make(map[*Proc]struct{}),
		blocked: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Proc is a simulated process. Its methods must only be called from the
// process's own goroutine (inside the fn passed to Spawn).
type Proc struct {
	eng    *Engine
	name   string
	pid    int
	wake   chan struct{}
	daemon bool
	reason string // why the process is parked, for deadlock reports
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.eng.now }

// Spawn creates a process that starts executing fn at the current virtual
// time (after already-scheduled events at the same instant).
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, false, fn)
}

// SpawnDaemon creates a daemon process: it behaves like a normal process but
// being permanently blocked does not count as deadlock (server loops waiting
// for requests after the workload finished are daemons).
func (e *Engine) SpawnDaemon(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, true, fn)
}

func (e *Engine) spawn(name string, daemon bool, fn func(*Proc)) *Proc {
	e.nextPID++
	p := &Proc{eng: e, name: name, pid: e.nextPID, wake: make(chan struct{}), daemon: daemon}
	e.live[p] = struct{}{}
	if daemon {
		e.daemons++
	}
	go p.run(fn)
	e.scheduleWake(p, e.now)
	return p
}

func (p *Proc) run(fn func(*Proc)) {
	defer func() {
		e := p.eng
		if r := recover(); r != nil {
			if e.failure == nil {
				e.failure = fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack())
			}
		}
		delete(e.live, p)
		if p.daemon {
			e.daemons--
		}
		e.parked <- struct{}{}
	}()
	p.resume() // wait for the start event
	fn(p)
}

// yield returns control to the engine; the process resumes when the engine
// delivers the next wake for it.
func (p *Proc) yield() {
	if p.eng.unwinding {
		runtime.Goexit() // a deferred call blocked while Run unwinds the process
	}
	p.eng.parked <- struct{}{}
	p.resume()
}

// resume waits for the process's next wake. A closed wake channel is Run
// unwinding the process: it exits, running its deferred calls.
func (p *Proc) resume() {
	if _, ok := <-p.wake; !ok {
		runtime.Goexit()
	}
}

// block parks the process with no scheduled event; some other process (or
// primitive) must wake it via scheduleWake. reason appears in deadlock
// reports.
func (p *Proc) block(reason string) {
	p.reason = reason
	p.eng.blocked[p] = struct{}{}
	p.yield()
	p.reason = ""
}

// scheduleWake enqueues a wake event for p at time at, removing it from the
// blocked set.
func (e *Engine) scheduleWake(p *Proc, at time.Duration) {
	delete(e.blocked, p)
	e.seq++
	heap.Push(&e.events, event{at: at, seq: e.seq, p: p})
}

// wakeAt is the primitive used by synchronisation objects: wake p at the
// current instant (it runs after the waker yields).
func (e *Engine) wakeAt(p *Proc) { e.scheduleWake(p, e.now) }

// Yield reschedules the process at the current virtual instant, behind every
// event already queued for this instant. It is the simulated rendering of a
// processor yield: co-scheduled processes run (and may publish work) before
// the yielder resumes, while the virtual clock does not advance. A process
// spinning on Yield with no other runnable process re-runs at the same
// instant forever, so idle loops must interleave timed Sleeps.
func (p *Proc) Yield() {
	p.eng.scheduleWake(p, p.eng.now)
	p.reason = "yield"
	p.yield()
	p.reason = ""
}

// Sleep advances the process by d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v in process %q", d, p.name))
	}
	p.eng.scheduleWake(p, p.eng.now+d)
	p.reason = "sleep"
	p.yield()
	p.reason = ""
}

// Run executes events until none remain, a process panics, or deadlock is
// detected. It returns the first process panic (wrapped), a deadlock error
// naming the parked processes, or nil on normal completion. Whichever way it
// returns, it first unwinds every process still parked, so none outlives the
// run. Run may be called once per engine.
func (e *Engine) Run() error {
	if e.running {
		return fmt.Errorf("sim: Run called twice")
	}
	e.running = true
	defer e.unwind()
	for e.failure == nil && len(e.events) > 0 {
		ev := heap.Pop(&e.events).(event)
		if ev.at < e.now {
			return fmt.Errorf("sim: time went backwards (%v -> %v)", e.now, ev.at)
		}
		e.now = ev.at
		ev.p.wake <- struct{}{}
		<-e.parked
	}
	if e.failure != nil {
		return e.failure
	}
	if len(e.live) > e.daemons {
		return fmt.Errorf("sim: deadlock at %v: %s", e.now, e.describeBlocked())
	}
	return nil
}

// unwind ends every live process, one at a time and in spawn order, by
// closing its wake channel: the process exits from the yield it is parked
// in, or before its first instruction if it never started. Deferred calls
// still run under the cooperative discipline, so they may touch engine
// state; any process they spawn is unwound in turn.
func (e *Engine) unwind() {
	e.unwinding = true
	for len(e.live) > 0 {
		procs := make([]*Proc, 0, len(e.live))
		for p := range e.live {
			procs = append(procs, p)
		}
		sort.Slice(procs, func(i, j int) bool { return procs[i].pid < procs[j].pid })
		for _, p := range procs {
			close(p.wake)
			<-e.parked
		}
	}
	e.events = nil
}

func (e *Engine) describeBlocked() string {
	var names []string
	for p := range e.blocked {
		if !p.daemon {
			names = append(names, fmt.Sprintf("%s (%s)", p.name, p.reason))
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return "processes blocked outside the engine"
	}
	return strings.Join(names, ", ")
}

// event is a scheduled process wake-up.
type event struct {
	at  time.Duration
	seq uint64
	p   *Proc
}

// eventHeap orders events by time then sequence (FIFO within an instant).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}
