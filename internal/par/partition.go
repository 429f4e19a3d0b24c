package par

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"aspectpar/internal/aspect"
	"aspectpar/internal/exec"
)

// managedSet is the bookkeeping shared by the partition protocols: the
// aspect-managed objects that replaced the single core object (the paper's
// Figure 4), in creation order.
type managedSet struct {
	mu   sync.Mutex
	objs []any
}

func (s *managedSet) add(obj any) {
	s.mu.Lock()
	s.objs = append(s.objs, obj)
	s.mu.Unlock()
}

func (s *managedSet) all() []any {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]any, len(s.objs))
	copy(out, s.objs)
	return out
}

func (s *managedSet) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objs)
}

// Collect calls method (with no arguments) on every object of the managed
// set, sequentially and inline, and returns the first result of each call.
// It is the gather step applications use after Join: the calls are ordinary
// woven calls, so with distribution plugged they fetch results over the
// middleware.
func collect(ctx exec.Context, class *Class, objs []any, method string) ([]any, error) {
	out := make([]any, 0, len(objs))
	for _, obj := range objs {
		res, err := class.CallWith(ctx, Internal|NoAsync, obj, method)
		if err != nil {
			return nil, err
		}
		if len(res) == 0 {
			out = append(out, nil)
			continue
		}
		out = append(out, res[0])
	}
	return out, nil
}

// --- Pipeline ---------------------------------------------------------------

// PipelineConfig parameterises the reusable pipeline protocol — the Go
// rendering of the paper's abstract PipelineProtocol aspect (Figure 9).
type PipelineConfig struct {
	// Class is the core class whose instances form the pipeline.
	Class *Class
	// Method is the processing method to split and forward (the paper's
	// compute/filter).
	Method string
	// Stages is the number of pipeline elements to create in place of the
	// single core object.
	Stages int
	// StageArgs derives stage i's constructor arguments from the original
	// ones (the paper divides the prime range among elements). nil reuses
	// the original arguments.
	StageArgs func(orig []any, stage int) []any
	// Split divides one core-functionality call's arguments into the
	// argument lists of the parallel sub-calls (the paper's pack split).
	// nil forwards the original call unsplit. A sub-call's single argument
	// may be a Lazy payload, built as its call is issued.
	Split func(args []any) [][]any
	// Forward derives, from a completed stage call, the arguments to send
	// to the next stage; returning nil stops propagation at this stage.
	// nil reuses the sub-call arguments unchanged.
	Forward func(stage int, results []any, args []any) []any
	// ClientForward moves call forwarding to the caller's side of the
	// middleware. The default forwarding advice sits below distribution and
	// runs where the stage lives — which requires the server side to
	// re-enter this module's weaver, as the in-process middlewares do. A
	// process-separated middleware (par.NetRMI) dispatches into the remote
	// node's own domain, where this module is not plugged; with
	// ClientForward the forwarding advice sits above distribution instead,
	// so each stage's results return to the caller and the caller ships
	// them to the next stage. Results are identical; the traffic pattern
	// doubles back through the caller on every hop (and forwarded calls
	// cannot stay void, since the caller needs the results to forward).
	//
	// UseTopology is the third option for process-separated middlewares:
	// hops run node-side, peer-to-peer, without the doubling.
	ClientForward bool
	// ForwardRule names a forward rule registered on Class with
	// DefineForward — the wire-shippable twin of the Forward closure,
	// required by UseTopology (node-side forwarding cannot run a driver
	// closure). When both Forward and ForwardRule are set they should
	// derive identical hops; the conformance cells pin that.
	ForwardRule string
}

// Pipeline is the pipeline partition module: object duplication into a chain
// of stages, method-call split, and stage-to-stage forwarding.
type Pipeline struct {
	cfg     PipelineConfig
	head    *aspect.Aspect // duplication + split (outermost)
	forward *aspect.Aspect // forwarding (server side, inner)

	set   managedSet
	mu    sync.Mutex
	next  map[any]any
	index map[any]int

	topo     TopologyInstaller // non-nil after UseTopology
	topology *Topology         // the installed plan, set at duplication
}

// NewPipeline builds the module.
func NewPipeline(cfg PipelineConfig) *Pipeline {
	if cfg.Class == nil || cfg.Method == "" || cfg.Stages <= 0 {
		panic(fmt.Sprintf("par: invalid pipeline config %+v", cfg))
	}
	p := &Pipeline{cfg: cfg, next: make(map[any]any), index: make(map[any]int)}

	newPC := aspect.New(cfg.Class.Name())
	callPC := aspect.Call(cfg.Class.Name(), cfg.Method)

	p.head = aspect.NewAspect("pipeline", precPartition)
	// Object duplication (paper Figure 8, block 1): create the pipeline
	// elements in reverse order, remember the chain in next, hand the first
	// element back to the oblivious client.
	p.head.Around(newPC, func(jp *aspect.JoinPoint, proceed aspect.ProceedFunc) ([]any, error) {
		if jp.Marked(Internal) {
			// A module-generated construction (e.g. an elastic-pool grow)
			// must not re-trigger duplication.
			return proceed(nil)
		}
		orig := append([]any(nil), jp.Args...)
		var nextObj any
		stages := make([]any, cfg.Stages)
		for i := cfg.Stages - 1; i >= 0; i-- {
			args := orig
			if cfg.StageArgs != nil {
				args = cfg.StageArgs(orig, i)
			}
			res, err := proceed(args)
			if err != nil {
				return nil, err
			}
			obj := res[0]
			stages[i] = obj
			p.mu.Lock()
			p.next[obj] = nextObj
			p.index[obj] = i
			p.mu.Unlock()
			nextObj = obj
		}
		for _, obj := range stages {
			p.set.add(obj)
		}
		if ti := p.installer(); ti != nil {
			// Peer-to-peer mode: compile the freshly placed chain into a
			// Topology and install it on the worker nodes, so hops forward
			// node-side from the first call on.
			t, err := ti.InstallPipeline(cfg.Class, cfg.Method, cfg.ForwardRule, stages)
			if err != nil {
				return nil, err
			}
			p.mu.Lock()
			p.topology = t
			p.mu.Unlock()
		}
		return []any{stages[0]}, nil
	})
	// Method-call split (block 2): a core-functionality call becomes a
	// series of sub-calls entering the first pipeline element.
	p.head.Around(callPC, func(jp *aspect.JoinPoint, proceed aspect.ProceedFunc) ([]any, error) {
		if jp.Marked(Internal | Remote) {
			return proceed(nil)
		}
		ctx := ctxOf(jp)
		head := jp.Target
		parts := [][]any{jp.Args}
		if cfg.Split != nil {
			parts = cfg.Split(jp.Args)
		}
		marks := Internal
		if p.installer() != nil {
			// Peer-to-peer mode: the caller never needs stage 0's results
			// (hops carry them node-side), so the sub-calls ride the one-way
			// windowed path — the ack-clocked send window is the pipeline's
			// ingest backpressure, and the driver's traffic stays one hop.
			marks |= Void
		}
		var errs []error
		for _, part := range parts {
			if _, err := cfg.Class.CallWith(ctx, marks, head, cfg.Method, part...); err != nil {
				errs = append(errs, err)
			}
		}
		return nil, errors.Join(errs...)
	})

	// Call forwarding (block 3): after a stage processed a call, propagate
	// it to the next element. By default this advice sits inside
	// distribution, so it runs where the stage lives (the server side
	// re-enters the weaver); the generated call is itself woven, so it
	// travels one middleware hop. With ClientForward it sits above
	// distribution instead and runs at the caller — see PipelineConfig.
	prec := precForward
	if cfg.ClientForward {
		prec = precClientForward
	}
	p.forward = aspect.NewAspect("pipeline-forward", prec)
	p.forward.Around(callPC, func(jp *aspect.JoinPoint, proceed aspect.ProceedFunc) ([]any, error) {
		if p.installer() != nil {
			// Peer-to-peer mode: hops run node-side under the installed
			// topology, so caller-side forwarding stands aside entirely.
			return proceed(nil)
		}
		if cfg.ClientForward && jp.Marked(Remote) {
			return proceed(nil)
		}
		p.mu.Lock()
		nxt := p.next[jp.Target]
		stage := p.index[jp.Target]
		p.mu.Unlock()
		if cfg.ClientForward && nxt != nil {
			// The caller must see the results to forward them, so the hop
			// cannot ship as a bare-acknowledged void call.
			jp.Unmark(Void)
		}
		res, err := proceed(nil)
		if err != nil {
			return res, err
		}
		if nxt == nil {
			return res, nil
		}
		fw := jp.Args
		if cfg.Forward != nil {
			fw = cfg.Forward(stage, res, jp.Args)
		}
		if fw == nil {
			return res, nil
		}
		if _, err := cfg.Class.CallWith(ctxOf(jp), Internal, nxt, cfg.Method, fw...); err != nil {
			return res, err
		}
		return res, nil
	})
	return p
}

// UseTopology arms peer-to-peer forwarding: when the pipeline's stages are
// created, the module compiles the chain into a Topology (stage → placement
// → successor) and installs it through mw on the worker nodes, whose forward
// lanes then ship every stage-to-stage hop directly to the successor's peer
// — the driver is no longer on the hop path, and stage 0's feed rides the
// one-way send window. Requires a TopologyInstaller middleware (par.NetRMI)
// and a ForwardRule registered on the class (the class "opts in" by naming
// its forward derivation; see Class.DefineForward) — callers fall back to
// ClientForward when either is missing, which is what the returned error
// signals. Call it after NewPipeline and before the pipeline object is
// created; it is mutually exclusive with ClientForward.
func (p *Pipeline) UseTopology(mw Middleware) error {
	if p.cfg.ClientForward {
		return errors.New("par: UseTopology on a ClientForward pipeline")
	}
	ti, ok := mw.(TopologyInstaller)
	if !ok {
		return fmt.Errorf("par: middleware %s cannot install topologies", mw.MiddlewareName())
	}
	if p.cfg.ForwardRule == "" {
		return fmt.Errorf("par: pipeline over %s names no ForwardRule (the class opts out of peer-to-peer forwarding)", p.cfg.Class.Name())
	}
	if _, ok := p.cfg.Class.ForwardRule(p.cfg.ForwardRule); !ok {
		return fmt.Errorf("par: class %s registered no forward rule %q", p.cfg.Class.Name(), p.cfg.ForwardRule)
	}
	p.mu.Lock()
	p.topo = ti
	p.mu.Unlock()
	return nil
}

// installer returns the armed TopologyInstaller (nil in the caller-side
// forwarding modes).
func (p *Pipeline) installer() TopologyInstaller {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.topo
}

// Topology returns the installed placement plan — nil before the pipeline
// object was created, or when UseTopology was not armed.
func (p *Pipeline) Topology() *Topology {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.topology
}

// ModuleName implements Module.
func (p *Pipeline) ModuleName() string { return fmt.Sprintf("pipeline(%d)", p.cfg.Stages) }

// Plug implements Module.
func (p *Pipeline) Plug(w *aspect.Weaver) { w.Plug(p.head, p.forward) }

// Unplug implements Module.
func (p *Pipeline) Unplug(w *aspect.Weaver) {
	w.Unplug(p.head)
	w.Unplug(p.forward)
}

// Managed returns the pipeline elements in stage order.
func (p *Pipeline) Managed() []any { return p.set.all() }

// Collect gathers method() from every stage (see collect).
func (p *Pipeline) Collect(ctx exec.Context, method string) ([]any, error) {
	return collect(ctx, p.cfg.Class, p.set.all(), method)
}

// --- Farm -------------------------------------------------------------------

// FarmConfig parameterises the farm protocol: every worker can process any
// piece of work (the paper's Figure 10, "each pack of numbers can be
// processed by ANY PrimeFilter").
type FarmConfig struct {
	// Class is the core class whose instances form the farm.
	Class *Class
	// Method is the processing method to split.
	Method string
	// Workers is the number of replicas replacing the single core object.
	Workers int
	// WorkerArgs derives replica i's constructor arguments; nil broadcasts
	// the original arguments to every replica (each farm filter holds ALL
	// the seed primes).
	WorkerArgs func(orig []any, worker int) []any
	// Split divides one call into work pieces; nil keeps the call whole. As
	// in PipelineConfig, a piece may carry a Lazy payload.
	Split func(args []any) [][]any
	// Dynamic selects self-scheduling: instead of pre-assigning pieces
	// round-robin, one dispatcher activity per worker pulls the next piece
	// when the previous finished. This is the paper's dynamic farm — the
	// case where partition and concurrency could not be separated, so the
	// module manages its own activities and the plain Concurrency module
	// is not used with it.
	Dynamic bool
	// Stealing selects the work-stealing adaptive scheduler (scheduler.go):
	// pieces are dealt into per-worker deques, idle workers steal half of a
	// victim's queue, and a steal against a single hot pack splits it in
	// two. Like Dynamic, the module manages its own activities, so the
	// plain Concurrency module is not used with it. Dynamic and Stealing
	// are mutually exclusive.
	Stealing bool
	// Steal tunes the work-stealing scheduler when Stealing is set; the
	// zero value selects defaults (see StealConfig).
	Steal StealConfig
	// Window is the latency-hiding dispatch window of the self-scheduling
	// schedules (Dynamic and Stealing): each worker keeps up to Window packs
	// in flight through the distribution middleware instead of blocking on
	// every round trip, reclaiming completions in completion order. 0
	// selects DefaultWindow; 1 is a one-slot window of the same worker loop
	// whose every pack call is the plain synchronous round trip, never
	// journaled as windowed. Without a distribution middleware that supports
	// AsyncInvoker the window is inert: calls execute inline as before.
	Window int
}

// DefaultWindow is the dispatch window the self-scheduling farms use when
// FarmConfig.Window is zero. Two is double buffering — one pack executing at
// the replica while the next is on the wire — which hides the round-trip
// latency almost as completely as deeper windows while claiming the fewest
// packs: a pack in flight can no longer be stolen, so deep windows re-create
// the load imbalance the adaptive schedules exist to remove.
const DefaultWindow = 2

// Farm is the farm partition module (static round-robin, dynamic
// self-scheduling, or adaptive work-stealing).
type Farm struct {
	cfg FarmConfig
	asp *aspect.Aspect

	set managedSet

	mu         sync.Mutex
	rr         int
	wg         exec.WaitGroup
	pending    int
	errs       []error
	stealTotal StealStats // folded from finished dispatch rounds (Stealing only)
	ctorArgs   []any      // original constructor args, recorded at duplication (Grow's recipe)
	haveCtor   bool
	round      *stealRound // live stealing dispatch round; nil between rounds
}

// stealRound is the bookkeeping of one in-flight stealing dispatch round,
// held on the farm (guarded by f.mu) so a replica created mid-round —
// Farm.Grow on a node that joined the pool — can widen it: the scheduler
// gains a deque and a fresh worker activity is spawned into the SAME round.
// workers counts spawned activities (growth increments it), exited the ones
// that finished; the last one out folds the counters and retires the round.
type stealRound struct {
	sched   *stealScheduler
	win     int
	workers int
	exited  int
}

// NewFarm builds the module.
func NewFarm(cfg FarmConfig) *Farm {
	if cfg.Class == nil || cfg.Method == "" || cfg.Workers <= 0 {
		panic(fmt.Sprintf("par: invalid farm config %+v", cfg))
	}
	if cfg.Dynamic && cfg.Stealing {
		panic("par: farm cannot be both Dynamic and Stealing")
	}
	f := &Farm{cfg: cfg}

	newPC := aspect.New(cfg.Class.Name())
	callPC := aspect.Call(cfg.Class.Name(), cfg.Method)

	name := "farm"
	if cfg.Dynamic {
		name = "dynamic-farm"
	}
	if cfg.Stealing {
		name = "stealing-farm"
	}
	f.asp = aspect.NewAspect(name, precPartition)

	// Object duplication with broadcast constructor arguments.
	f.asp.Around(newPC, func(jp *aspect.JoinPoint, proceed aspect.ProceedFunc) ([]any, error) {
		if jp.Marked(Internal) {
			// A module-generated construction (Farm.Grow building a replica
			// on a node that joined mid-run) must not re-duplicate.
			return proceed(nil)
		}
		orig := append([]any(nil), jp.Args...)
		f.mu.Lock()
		f.ctorArgs = append([]any(nil), orig...)
		f.haveCtor = true
		f.mu.Unlock()
		var first any
		for i := 0; i < cfg.Workers; i++ {
			args := orig
			if cfg.WorkerArgs != nil {
				args = cfg.WorkerArgs(orig, i)
			}
			res, err := proceed(args)
			if err != nil {
				return nil, err
			}
			f.set.add(res[0])
			if i == 0 {
				first = res[0]
			}
		}
		return []any{first}, nil
	})

	// Method-call split; each piece goes to one worker.
	f.asp.Around(callPC, func(jp *aspect.JoinPoint, proceed aspect.ProceedFunc) ([]any, error) {
		if jp.Marked(Internal | Remote) {
			return proceed(nil)
		}
		ctx := ctxOf(jp)
		parts := [][]any{jp.Args}
		if cfg.Split != nil {
			parts = cfg.Split(jp.Args)
		}
		workers := f.set.all()
		if len(workers) == 0 {
			// The object was never duplicated (created before the module
			// was plugged): process locally, unsplit — a Lazy argument
			// reaches the body unbuilt, as with no partition plugged.
			return proceed(nil)
		}
		if cfg.Dynamic {
			return nil, f.dispatchDynamic(ctx, workers, parts)
		}
		if cfg.Stealing {
			return nil, f.dispatchStealing(ctx, workers, parts)
		}
		var errs []error
		for _, part := range parts {
			w := workers[f.nextWorker(len(workers))]
			if _, err := cfg.Class.CallWith(ctx, Internal, w, cfg.Method, part...); err != nil {
				errs = append(errs, err)
			}
		}
		return nil, errors.Join(errs...)
	})
	return f
}

// beginRound registers n worker activities of one self-scheduling dispatch
// round with the farm's join bookkeeping.
func (f *Farm) beginRound(ctx exec.Context, n int) {
	f.mu.Lock()
	if f.wg == nil {
		f.wg = ctx.NewWaitGroup()
	}
	f.wg.Add(n)
	f.pending += n
	f.mu.Unlock()
}

func (f *Farm) nextWorker(n int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := f.rr % n
	f.rr++
	return i
}

func (f *Farm) fail(err error) {
	f.mu.Lock()
	f.errs = append(f.errs, err)
	f.mu.Unlock()
}

// window resolves the dispatch window of this farm's self-scheduling loops:
// zero selects DefaultWindow.
func (f *Farm) window() int {
	switch w := f.cfg.Window; {
	case w == 0:
		return DefaultWindow
	case w < 1:
		return 1
	default:
		return w
	}
}

// windowSlot is the per-call envelope of the windowed dispatch protocol: the
// dispatcher attaches it under MarkWindowed; distribution advice that ships
// the call asynchronously sets issued and the middleware delivers one
// *Completion on done when the call has been executed.
type windowSlot struct {
	done   exec.Chan
	issued bool
}

// issuePack ships one pack call of a worker loop with window win. It reports
// whether the completion will arrive on done; when false the call ran inline
// and any error was already recorded, so the loop finishes the pack at once.
// A window of 1 makes the plain synchronous call: it requests no windowed
// delivery. Wider windows request windowed delivery, which still runs
// inline when no distribution is plugged, the object is local, or the
// middleware cannot pipeline. The call is deliberately NOT marked void: the
// synchronous protocol ships result payloads in its replies, so the windowed
// protocol does too — the window is the only variable between the two,
// keeping latency-hiding measurements honest.
func (f *Farm) issuePack(ctx exec.Context, w any, args []any, win int, done exec.Chan) bool {
	if win <= 1 {
		if _, err := f.cfg.Class.CallWith(ctx, Internal|NoAsync, w, f.cfg.Method, args...); err != nil {
			f.fail(err)
		}
		return false
	}
	slot := &windowSlot{done: done}
	if _, err := f.cfg.Class.callWindowed(ctx, slot, w, f.cfg.Method, args); err != nil && !slot.issued {
		f.fail(err)
	}
	return slot.issued
}

// settleCompletion settles one reclaimed completion's caller-side reply
// costs and records its error, if any. Both self-scheduling partitions route
// every completion through it, so the reclamation protocol cannot drift
// between them.
func (f *Farm) settleCompletion(ctx exec.Context, c *Completion) {
	if _, err := c.Reclaim(ctx); err != nil {
		f.fail(err)
	}
}

// dispatchDynamic implements self-scheduling: a shared work queue and one
// dispatcher activity per worker pulling from it. The per-piece calls run
// inline (MarkNoAsync) — the dispatcher activity is the concurrency. Each
// dispatcher keeps up to Window packs in flight through the middleware and
// pulls the next piece as soon as a slot frees; with a window of 1 every
// pack is one blocking round trip.
func (f *Farm) dispatchDynamic(ctx exec.Context, workers []any, parts [][]any) error {
	queue := ctx.NewChan(len(parts))
	for _, part := range parts {
		queue.Send(ctx, part)
	}
	queue.Close()
	win := f.window()
	f.beginRound(ctx, len(workers))
	for i, w := range workers {
		w := w
		ctx.Spawn(fmt.Sprintf("farm-worker-%d", i), func(child exec.Context) {
			defer f.workerDone()
			done := child.NewChan(win)
			inflight := 0
			reclaim := func() {
				v, _ := done.Recv(child)
				f.settleCompletion(child, v.(*Completion))
				inflight--
			}
			for {
				part, ok := queue.Recv(child)
				if !ok {
					break
				}
				if f.issuePack(child, w, part.([]any), win, done) {
					inflight++
					for inflight >= win {
						reclaim()
					}
				}
			}
			for inflight > 0 {
				reclaim()
			}
		})
	}
	return nil
}

// dispatchStealing implements the work-stealing adaptive schedule: the packs
// of one call are dealt into per-worker deques and one worker activity per
// replica drains its own deque, stealing (and splitting) from the others when
// it runs dry. As in the dynamic farm, the per-pack calls run inline
// (MarkNoAsync) — the worker activities are the concurrency — and worker i
// executes everything it obtains on replica i, so stolen work migrates to
// the idle replica (and, with distribution plugged, to its node).
func (f *Farm) dispatchStealing(ctx exec.Context, workers []any, parts [][]any) error {
	sched := newStealScheduler(f.cfg.Steal, len(workers))
	sched.seed(parts)
	r := &stealRound{sched: sched, win: f.window(), workers: len(workers)}
	f.mu.Lock()
	f.round = r
	f.mu.Unlock()
	f.beginRound(ctx, len(workers))
	for i, w := range workers {
		f.spawnStealWorker(ctx, r, i, w)
	}
	return nil
}

// spawnStealWorker launches one worker activity of round r: worker i executes
// everything it obtains on replica w. Used for the round-start workers and
// for replicas created mid-round by Grow.
func (f *Farm) spawnStealWorker(ctx exec.Context, r *stealRound, i int, w any) {
	ctx.Spawn(fmt.Sprintf("steal-worker-%d", i), func(child exec.Context) {
		defer f.workerDone()
		f.stealWorker(child, r.sched, i, w, r.win)
		// The round's counters settle only once every worker is out of
		// its loop; the last one folds them into the farm total and the
		// scheduler (deques, pack payloads) becomes garbage.
		f.mu.Lock()
		r.exited++
		if r.exited == r.workers {
			f.stealTotal.add(r.sched.stats())
			if f.round == r {
				f.round = nil
			}
		}
		f.mu.Unlock()
	})
}

// Grow widens the farm by one replica placed at node — the elastic pool's
// response to a worker joining mid-run. The replica is constructed through
// the ordinary woven construction site (so distribution exports it at the
// new node) but marked internal, which keeps the duplication advice out of
// the way, and place-pinned, which overrides the placement policy resolved
// before the node existed. If a stealing dispatch round is in flight, the
// round is widened too: the scheduler grows a deque and a fresh worker
// activity spawns into the same round — it starts hungry and steals its
// first pack, which is how the newcomer measurably absorbs work.
func (f *Farm) Grow(ctx exec.Context, node exec.NodeID) (any, error) {
	if !f.cfg.Stealing {
		return nil, errors.New("par: Grow requires a stealing farm")
	}
	f.mu.Lock()
	if !f.haveCtor {
		f.mu.Unlock()
		return nil, errors.New("par: Grow before the farm object was created")
	}
	orig := append([]any(nil), f.ctorArgs...)
	f.mu.Unlock()
	idx := f.set.len()
	args := orig
	if f.cfg.WorkerArgs != nil {
		args = f.cfg.WorkerArgs(orig, idx)
	}
	obj, err := f.cfg.Class.NewAt(ctx, node, args...)
	if err != nil {
		return nil, err
	}
	f.set.add(obj)
	f.mu.Lock()
	r := f.round
	if r == nil || r.exited == r.workers {
		// No round in flight (or it is already folding): the replica joins
		// the managed set and the NEXT dispatch deals it a deque.
		f.mu.Unlock()
		return obj, nil
	}
	i := r.sched.addWorker()
	r.workers++
	// Join bookkeeping inline (beginRound re-locks f.mu): the widened round
	// must never be observable as quiet between the decision and the spawn.
	if f.wg == nil {
		f.wg = ctx.NewWaitGroup()
	}
	f.wg.Add(1)
	f.pending++
	f.mu.Unlock()
	f.spawnStealWorker(ctx, r, i, obj)
	return obj, nil
}

// stealWorker is the stealing worker loop: it obtains packs with the
// take/steal/split protocol and keeps up to win of them in flight through the
// middleware, reclaiming completions — and only then marking packs finished —
// in completion order. With a window of 1, or without an asynchronous
// middleware, every pack runs inline and finishes before the next is
// obtained. A worker that runs out of obtainable work reclaims its own
// window first (those completions free slots AND drive the round's
// termination counter) before falling back to the idle yield/backoff
// protocol.
func (f *Farm) stealWorker(child exec.Context, sched *stealScheduler, i int, w any, win int) {
	done := child.NewChan(win)
	inflight := 0
	reclaim := func() {
		v, _ := done.Recv(child)
		inflight--
		f.settleCompletion(child, v.(*Completion))
		sched.finish()
	}
	// dispatch issues one obtained pack; inline execution (window 1 or no
	// async middleware) completes — and finishes — before it returns.
	dispatch := func(pk stealPack) {
		if f.issuePack(child, w, pk.args, win, done) {
			inflight++
			for inflight >= win {
				reclaim()
			}
		} else {
			sched.finish()
		}
	}
	backoff := time.Microsecond
	hungry := false
	setHungry := func(h bool) {
		if h != hungry {
			if h {
				sched.hungry.Add(1)
			} else {
				sched.hungry.Add(-1)
			}
			hungry = h
		}
	}
	defer setHungry(false)
	for {
		pk, ok, deferred := sched.takeWindowed(i, inflight > 0)
		if deferred {
			// The last local pack stays queued — stealable — while the pipe
			// is busy; reclaim a completion and look again.
			reclaim()
			continue
		}
		if !ok {
			// Out of local work: hungry until a pack is obtained, which arms
			// owner-side splitting in the other workers' takeWindowed.
			setHungry(true)
			pk, ok = sched.trySteal(child, i)
		}
		if ok {
			setHungry(false)
			backoff = time.Microsecond
			dispatch(pk)
			continue
		}
		if inflight > 0 {
			reclaim()
			continue
		}
		if sched.drained() {
			return
		}
		// Idle protocol: yield so a busy victim can expose work at zero
		// (virtual) cost, rescan, then back off exponentially so an idle
		// tail is cheap on real hardware and always advances the virtual
		// clock.
		exec.Yield(child)
		if pk, ok := sched.trySteal(child, i); ok {
			setHungry(false)
			backoff = time.Microsecond
			dispatch(pk)
			continue
		}
		if sched.drained() {
			return
		}
		child.Sleep(backoff)
		backoff = min(2*backoff, maxIdleBackoff)
	}
}

// StealStats reports the work-stealing scheduler's counters, summed over
// every finished dispatch round (zero unless the farm was built with
// Stealing). Call it after Join for settled values — an in-flight round is
// folded in when its last worker exits.
func (f *Farm) StealStats() StealStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stealTotal
}

func (f *Farm) workerDone() {
	f.mu.Lock()
	f.pending--
	wg := f.wg
	f.mu.Unlock()
	wg.Done()
}

// ModuleName implements Module.
func (f *Farm) ModuleName() string {
	switch {
	case f.cfg.Dynamic:
		return fmt.Sprintf("dynamic-farm(%d)", f.cfg.Workers)
	case f.cfg.Stealing:
		return fmt.Sprintf("stealing-farm(%d)", f.cfg.Workers)
	default:
		return fmt.Sprintf("farm(%d)", f.cfg.Workers)
	}
}

// Plug implements Module.
func (f *Farm) Plug(w *aspect.Weaver) { w.Plug(f.asp) }

// Unplug implements Module.
func (f *Farm) Unplug(w *aspect.Weaver) { w.Unplug(f.asp) }

// Managed returns the farm replicas in creation order.
func (f *Farm) Managed() []any { return f.set.all() }

// Collect gathers method() from every replica (see collect).
func (f *Farm) Collect(ctx exec.Context, method string) ([]any, error) {
	return collect(ctx, f.cfg.Class, f.set.all(), method)
}

// Join implements Joiner (meaningful for the dynamic farm's dispatchers and
// the stealing farm's worker activities).
func (f *Farm) Join(ctx exec.Context) error {
	f.mu.Lock()
	wg := f.wg
	f.mu.Unlock()
	if wg != nil {
		wg.Wait(ctx)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return errors.Join(f.errs...)
}

// Quiet implements Joiner.
func (f *Farm) Quiet() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pending == 0
}
