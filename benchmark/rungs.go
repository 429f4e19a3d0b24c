package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"aspectpar/internal/apps/imagepipe"
	"aspectpar/internal/apps/mandel"
	"aspectpar/internal/aspect"
	"aspectpar/internal/exec"
	"aspectpar/internal/par"
	"aspectpar/internal/rmi"
	"aspectpar/internal/sieve"
)

// The ladder pushes one fixed pack — 16 int32, the call-small request — up
// the stack one rung at a time, timing the benchmark's own calls into each
// layer's public functions: direct call, woven call, in-process par class,
// raw rmi, NetRMI, NetRMI with the fault journal, a pipeline hop. A rung's
// self time is its delta to the rung beneath; round trips are lower
// quartiles (see quiet), or the deltas would be differences of noise. The
// bulk rungs push the call-bulk pack (65,536 int32) instead. The ladder
// depends on no workload, so every traced run measures it again.

// ladder collects rung results; a rung whose output is wrong reports an
// error instead of a number.
type ladder struct {
	c       config
	rec     *recorder
	metrics map[string]sample
	errs    []string
}

func (l *ladder) set(name string, s sample) { l.metrics[name] = s }

func (l *ladder) errorf(format string, args ...any) {
	l.errs = append(l.errs, fmt.Sprintf(format, args...))
}

// spanned records a few calls of fn as spans, after the rung was timed
// without them, so that the trace file shows every boundary the ladder
// crosses.
func (l *ladder) spanned(name string, fn func()) {
	for i := 0; i < 100; i++ {
		id := l.rec.begin(name, 0, 0)
		fn()
		l.rec.end(id)
	}
}

func runLadder(c config, rec *recorder) (map[string]sample, []string) {
	l := &ladder{c: c, rec: rec, metrics: make(map[string]sample)}
	rng := rand.New(rand.NewSource(c.seed))
	small, bulk := randomPack(rng, 16), randomPack(rng, 65_536)
	l.aspectRungs(small)
	l.parRungs(small)
	l.rmiRungs(small, bulk)
	l.netRungs("netrmi", small, bulk)
	l.netRungs("netfault", small, bulk, par.WithFaultPolicy(par.FaultPolicy{Enabled: true, CheckpointEvery: 256}))
	l.deltas()
	l.topologyRungs()
	l.serviceRungs(rng)
	l.sieveRungs()
	return l.metrics, l.errs
}

// --- aspect ---------------------------------------------------------------------

func (l *ladder) aspectRungs(pack []int32) {
	n := l.c.n(500_000)
	want := sum32(pack)
	var got int64
	body := func(args []any) ([]any, error) {
		got = sum32(args[0].([]int32))
		return nil, nil
	}
	args := []any{pack}
	l.set("aspect.direct_ns", one(timeLoop(n, func() { _, _ = body(args) })*1e9, "ns"))
	for _, aspects := range []int{0, 1, 4} {
		w := aspect.NewWeaver()
		for i := 0; i < aspects; i++ {
			w.Plug(aspect.NewAspect("pass"+strconv.Itoa(i), i).Around(aspect.Call("Tally", "Add"),
				func(jp *aspect.JoinPoint, proceed aspect.ProceedFunc) ([]any, error) { return proceed(nil) }))
		}
		call := func() { _, _ = w.Call(nil, nil, "Tally", "Add", body, pack) }
		got = 0
		call()
		if got != want {
			l.errorf("woven call with %d aspects did not reach the body", aspects)
		}
		l.set(fmt.Sprintf("aspect.woven%d_ns", aspects), one(timeLoop(n, call)*1e9, "ns"))
		if aspects == 0 {
			allocs, _ := allocsPer(n, call)
			l.set("aspect.woven0_allocs", one(allocs, "count"))
			l.spanned("aspect.Weaver.Call", call)
		}
	}
}

// --- par, in process --------------------------------------------------------------

func (l *ladder) parRungs(pack []int32) {
	ctx := exec.Real()
	class := tallyClass(par.NewDomain(), nil)
	obj, err := class.New(ctx, int64(0), int64(0))
	if err != nil {
		l.errorf("par class: %v", err)
		return
	}
	n := l.c.n(500_000)
	call := func() { _, _ = class.Call(ctx, obj, "Add", pack) }
	l.set("par.class_call_ns", one(timeLoop(n, call)*1e9, "ns"))
	if res, _ := class.Call(ctx, obj, "Add", pack); len(res) != 1 || res[0].(int64) != int64(n+1)*sum32(pack) {
		l.errorf("par class: %d Adds left the sum at %v", n+1, res)
	}
	l.spanned("par.Class.Call", call)

	// The woven-local render against the plain loop over the same rows: what
	// one woven asynchronous farm call costs beyond the arithmetic it carries.
	spec := wovenSpec(l.c)
	want := mandel.Sequential(spec)
	kernel := median(timeEach(3, func() { mandel.Sequential(spec) }), 1, "s").Value
	woven := median(timeEach(3, func() { l.render(spec, mandel.Static, want) }), 1, "s").Value
	l.set("par.static_call_us", sample{Value: (woven - kernel) / float64(spec.Height) * 1e6, Unit: "us", N: 3})
	l.set("par.kernel_share", sample{Value: kernel / woven, Unit: "ratio", N: 3})

	// The stealing scheduler alone: a square view, in process, no transport.
	square := mandel.DefaultSpec(l.c.n(512), l.c.n(512))
	wantSquare := mandel.Sequential(square)
	l.set("par.sched.local_solve_ms", median(timeEach(5, func() { l.render(square, mandel.Stealing, wantSquare) }), 1e3, "ms"))
}

func (l *ladder) render(spec mandel.Spec, sched mandel.Schedule, want [][]uint16) {
	img, err := mandel.Build(spec, 2, mandel.Config{Schedule: sched}).Render(exec.Real(), spec)
	if err != nil {
		l.errorf("mandel %s render: %v", sched, err)
		return
	}
	for r := range img {
		if !slices.Equal(img[r], want[r]) {
			l.errorf("mandel %s render: row %d differs from the sequential render", sched, r)
			return
		}
	}
}

// --- rmi, raw ---------------------------------------------------------------------

func (l *ladder) rmiRungs(small, bulk []int32) {
	var sum atomic.Int64 // one dispatch at a time, but from one goroutine per connection
	srv := rmi.NewServer()
	srv.Export("tally", func(method string, args []any) ([]any, error) {
		if method == "Echo" {
			return args, nil
		}
		return []any{sum.Add(sum32(args[0].([]int32)))}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		l.errorf("rmi server: %v", err)
		return
	}
	defer srv.Close()

	dial := func(codec rmi.Codec) (*rmi.Client, *rmi.Stub) {
		c, err := rmi.Dial(addr, rmi.WithCodec(codec))
		if err != nil {
			l.errorf("rmi dial: %v", err)
			return nil, nil
		}
		stub, err := c.Lookup("tally")
		if err != nil {
			l.errorf("rmi lookup: %v", err)
			c.Close()
			return nil, nil
		}
		return c, stub
	}
	var dialled []*rmi.Client
	l.set("rmi.dial_us", median(timeEach(l.c.n(50), func() {
		if c, err := rmi.Dial(addr, rmi.WithCodec(rmi.BinaryCodec())); err == nil {
			dialled = append(dialled, c)
		}
	}), 1e6, "us"))
	for _, c := range dialled {
		c.Close()
	}

	client, stub := dial(rmi.BinaryCodec())
	if client == nil {
		return
	}
	defer client.Close()
	var calls int64
	add := func() {
		calls++
		res, err := stub.Invoke("Add", small)
		if err != nil || res[0].(int64) != calls*sum32(small) {
			l.errorf("rmi Add %d: %v %v", calls, res, err)
		}
	}
	echo := func() {
		res, err := stub.Invoke("Echo", bulk)
		if err != nil || !slices.Equal(res[0].([]int32), bulk) {
			l.errorf("rmi Echo: %v", err)
		}
	}
	n := l.c.n(10_000)
	timeEach(n/10, add) // warm
	rtts := timeEach(n, add)
	l.set("rmi.rtt_small_us", quiet(rtts, 1e6, "us"))
	l.set("rmi.rtt_small_p99_us", p99(rtts, 1e6, "us"))
	allocs, bytes := allocsPer(n/10, add)
	l.set("rmi.small_allocs_per_call", one(allocs, "count"))
	l.set("rmi.small_bytes_per_call", one(bytes, "B"))
	l.spanned("rmi.Stub.Invoke", add)

	// The same round trip on the gob codec: the delta is the nearest thing
	// to "codec alone" that public functions show.
	if gobClient, gobStub := dial(rmi.GobCodec()); gobClient != nil {
		gobAdd := func() {
			calls++
			if _, err := gobStub.Invoke("Add", small); err != nil {
				l.errorf("rmi gob Add: %v", err)
			}
		}
		timeEach(n/10, gobAdd)
		l.set("rmi.rtt_small_gob_us", quiet(timeEach(n, gobAdd), 1e6, "us"))
		gobClient.Close()
	}

	// 64 calls in flight on futures, then one-way sends behind the
	// ack-clocked window.
	const window = 64
	n = l.c.n(50_000)
	start := time.Now()
	inflight := make([]interface{ Get() ([]any, error) }, 0, window)
	settle := func() {
		calls++
		res, err := inflight[0].Get()
		if err != nil || res[0].(int64) != calls*sum32(small) {
			l.errorf("rmi async Add %d: %v %v", calls, res, err)
		}
		inflight = inflight[1:]
	}
	for i := 0; i < n; i++ {
		if len(inflight) == window {
			settle()
		}
		inflight = append(inflight, stub.InvokeAsync("Add", small))
	}
	for len(inflight) > 0 {
		settle()
	}
	l.set("rmi.async_calls_per_s", sample{Value: float64(n) / time.Since(start).Seconds(), Unit: "1/s", N: n})

	start = time.Now()
	for i := 0; i < n; i++ {
		if err := stub.Send("Add", small); err != nil {
			l.errorf("rmi Send: %v", err)
			break
		}
	}
	if err := stub.Flush(); err != nil {
		l.errorf("rmi Flush: %v", err)
	}
	l.set("rmi.send_msgs_per_s", sample{Value: float64(n) / time.Since(start).Seconds(), Unit: "1/s", N: n})
	calls += int64(n)
	add() // the sends must all have been applied, once each

	n = l.c.n(500)
	timeEach(n/10, echo)
	bulkRTT := quiet(timeEach(n, echo), 1e6, "us")
	l.set("rmi.rtt_bulk_us", bulkRTT)
	l.set("rmi.bulk_mb_per_s", sample{Value: float64(8*len(bulk)) / (bulkRTT.Value / 1e6) / (1 << 20), Unit: "MiB/s", N: n})
	_, bytes = allocsPer(n/10, echo)
	l.set("rmi.bulk_bytes_per_call", one(bytes, "B"))
}

// --- NetRMI, with and without the fault journal -------------------------------------

// netRungs measures the synchronous NetRMI round trip on the call-small
// deployment (3 objects, 1 node, binary, 3 streams); prefix is netrmi, or
// netfault with the journal on, which repeats only the small-pack rungs.
func (l *ladder) netRungs(prefix string, small, bulk []int32, opts ...par.NetOption) {
	tn, err := startTallyNet(l.rec, nil, 1, callObjects, 0, opts...)
	if err != nil {
		l.errorf("%s: %v", prefix, err)
		return
	}
	defer tn.close()
	ctx := exec.Real()
	var calls int64
	add := func() {
		calls++
		res, err := tn.mw.Invoke(ctx, tn.objs[0], "Add", []any{small}, false)
		if err != nil || res[0].(int64) != calls*sum32(small) {
			l.errorf("%s Add %d: %v %v", prefix, calls, res, err)
		}
	}
	n := l.c.n(10_000)
	timeEach(n/10, add)
	rtts := timeEach(n, add)
	l.set(prefix+".rtt_us", quiet(rtts, 1e6, "us"))
	allocs, bytes := allocsPer(n/10, add)
	l.set(prefix+".allocs_per_call", one(allocs, "count"))
	l.set(prefix+".bytes_per_call", one(bytes, "B"))
	if prefix != "netrmi" {
		return
	}
	l.set(prefix+".rtt_p99_us", p99(rtts, 1e6, "us"))
	l.spanned("netrmi.Invoke", add)
	echo := func() {
		res, err := tn.mw.Invoke(ctx, tn.objs[1], "Echo", []any{bulk}, false)
		if err != nil || !slices.Equal(res[0].([]int32), bulk) {
			l.errorf("%s Echo: %v", prefix, err)
		}
	}
	timeEach(l.c.n(50), echo)
	_, bytes = allocsPer(l.c.n(50), echo)
	l.set(prefix+".bulk_bytes_per_call", one(bytes, "B"))
	next := int64(callObjects)
	l.set(prefix+".export_us", median(timeEach(l.c.n(50), func() {
		if _, err := tn.export(l.rec, next, 0, 0); err != nil {
			l.errorf("%s export: %v", prefix, err)
		}
		next++
	}), 1e6, "us"))
}

// deltas derives each rung's self time from the rung beneath.
func (l *ladder) deltas() {
	delta := func(name, upper, lower string) {
		u, okU := l.metrics[upper]
		d, okD := l.metrics[lower]
		if okU && okD {
			l.set(name, sample{Value: u.Value - d.Value, Unit: "us", N: u.N})
		}
	}
	delta("netrmi.self_us", "netrmi.rtt_us", "rmi.rtt_small_us")
	delta("netfault.self_us", "netfault.rtt_us", "netrmi.rtt_us")
}

// --- topology ---------------------------------------------------------------------

// relay is the minimal pipeline stage: it counts and sums what passes and
// hands the value on.
type relay struct{ seen, sum int64 }

func relayClass(dom *par.Domain) *par.Class {
	return dom.Define("Relay",
		func(args []any) (any, error) { return &relay{}, nil },
		map[string]par.MethodBody{
			"Pass": func(target any, args []any) ([]any, error) {
				r := target.(*relay)
				r.seen++
				r.sum += args[0].(int64)
				return []any{args[0]}, nil
			},
			"Seen": func(target any, args []any) ([]any, error) {
				r := target.(*relay)
				return []any{r.seen, r.sum}, nil
			},
		}).Wire(int64(0), []int64(nil)).DefineForward("relay", relayForward)
}

// relayForward hands a stage's result to the next stage as its argument.
func relayForward(stage int, results, args []any) []any { return []any{results[0]} }

const relayStages = 3

// relayRun pushes n values through a 3-stage pipeline over 2 nodes and
// returns the wall time per stage execution, or 0 if the terminal stage did
// not see every value exactly once.
func (l *ladder) relayRun(n int, clientForward bool) float64 {
	ctx := exec.Real()
	nodes, addrs, err := launchNodes(2, relayClass)
	if err != nil {
		l.errorf("relay: %v", err)
		return 0
	}
	defer func() {
		for _, node := range nodes {
			node.Close()
		}
	}()
	mw, err := par.DialNet(par.NetAddressTable(addrs...), par.WithCodec(rmi.BinaryCodec()), par.WithStreams(3))
	if err != nil {
		l.errorf("relay dial: %v", err)
		return 0
	}
	defer mw.Close()

	dom := par.NewDomain()
	class := relayClass(dom)
	pipe := par.NewPipeline(par.PipelineConfig{
		Class:  class,
		Method: "Pass",
		Stages: relayStages,
		Split: func(args []any) [][]any {
			vals := args[0].([]int64)
			parts := make([][]any, len(vals))
			for i, v := range vals {
				parts[i] = []any{v}
			}
			return parts
		},
		Forward:       relayForward,
		ForwardRule:   "relay",
		ClientForward: clientForward,
	})
	conc := par.NewConcurrency(aspect.Call("Relay", "Pass"))
	dist := par.NewDistribution(dom, aspect.New("Relay"), aspect.Call("Relay", "*"), mw, par.RoundRobin(0, len(nodes)))
	if !clientForward {
		if err := pipe.UseTopology(mw); err != nil {
			l.errorf("relay topology: %v", err)
			return 0
		}
	}
	stack := par.NewStack(dom, pipe, conc, dist)

	vals := make([]int64, n)
	var want int64
	for i := range vals {
		vals[i] = int64(i + 1)
		want += vals[i]
	}
	head, err := class.New(ctx)
	if err != nil {
		l.errorf("relay chain: %v", err)
		return 0
	}
	start := time.Now()
	if _, err := class.Call(ctx, head, "Pass", vals); err != nil {
		l.errorf("relay Pass: %v", err)
		return 0
	}
	if err := stack.Join(ctx); err != nil {
		l.errorf("relay Join: %v", err)
		return 0
	}
	took := time.Since(start).Seconds()
	stages := pipe.Managed()
	marks := map[string]any{par.MarkInternal: true, par.MarkNoAsync: true}
	res, err := class.CallMarked(ctx, marks, stages[len(stages)-1], "Seen")
	if err != nil || res[0].(int64) != int64(n) || res[1].(int64) != want {
		l.errorf("relay (clientForward=%v): terminal stage saw %v of %d values: %v", clientForward, res, n, err)
		return 0
	}
	return took / float64(n*relayStages)
}

func (l *ladder) topologyRungs() {
	// Three stages on two nodes: the terminal stage forwards nothing, so the
	// forward lanes form no cycle and cannot deadlock on full send windows,
	// however many values are in flight (README, known product bugs).
	n := l.c.n(5_000)
	for _, mode := range []struct {
		name          string
		clientForward bool
	}{{"topology.hop_us", false}, {"topology.clientforward_hop_us", true}} {
		var runs []float64
		for i := 0; i < 3; i++ {
			runs = append(runs, l.relayRun(n, mode.clientForward))
		}
		l.set(mode.name, median(runs, 1e6, "us"))
	}
}

// --- service ----------------------------------------------------------------------

func (l *ladder) serviceRungs(rng *rand.Rand) {
	frames := randomFrames(rng, l.c.n(2_000))
	// The useful work in a frame: the three filters, nothing else.
	start := time.Now()
	out := imagepipe.Sequential(frames)
	took := time.Since(start)
	if len(out) != len(frames) {
		l.errorf("imagepipe.Sequential returned %d of %d frames", len(out), len(frames))
	}
	l.set("service.kernel_us_per_frame", sample{Value: took.Seconds() * 1e6 / float64(len(frames)), Unit: "us", N: len(frames)})
}

// --- sieve ------------------------------------------------------------------------

func (l *ladder) sieveRungs() {
	p := sieveParams(l.c)
	ref := sieve.Reference(p.Max)
	wantCount, wantSum := sieve.Checksum(ref)

	start := time.Now()
	primes, err := sieve.HandSequential(p.Max)
	seq := time.Since(start).Seconds()
	if count, sum := sieve.Checksum(primes); err != nil || count != wantCount || sum != wantSum {
		l.errorf("HandSequential: %d primes, oracle has %d: %v", count, wantCount, err)
	}
	l.set("sieve.seq_solve_s", one(seq, "s"))

	sqrtMax := sieve.ISqrt(p.Max)
	cands := sieve.Candidates(sqrtMax, p.Max)
	cands = cands[:min(len(cands), 200_000)]
	pf, err := sieve.NewPrimeFilter(2, sqrtMax)
	if err != nil {
		l.errorf("PrimeFilter: %v", err)
		return
	}
	start = time.Now()
	survivors := pf.Filter(cands)
	took := time.Since(start)
	if len(survivors) == 0 || len(survivors) >= len(cands) {
		l.errorf("PrimeFilter.Filter kept %d of %d candidates", len(survivors), len(cands))
	}
	l.set("sieve.filter_ns_per_candidate", sample{Value: float64(took.Nanoseconds()) / float64(len(cands)), Unit: "ns", N: len(cands)})

	solve := func(name string, combo sieve.Combo, p sieve.Params) (float64, par.CommStats) {
		id := l.rec.begin("sieve.RunCombo", 0, 0)
		start := time.Now()
		res, err := sieve.RunCombo(combo, p)
		took := time.Since(start).Seconds()
		l.rec.end(id)
		if err != nil || res.PrimeCount != wantCount || res.PrimeSum != wantSum {
			l.errorf("%s: %d primes, oracle has %d: %v", name, res.PrimeCount, wantCount, err)
			return 0, par.CommStats{}
		}
		l.set("sieve."+name+"_solve_s", one(took, "s"))
		return took, res.Comm
	}
	// The ratios are diagnostics, not goals: the box delivers about one core,
	// so a ratio near 1 is the most a parallel solve can show here.
	for name, combo := range map[string]sieve.Combo{"farm": farmCombo, "pipe": pipeCombo} {
		if took, comm := solve(name, combo, p); took > 0 {
			l.set("sieve."+name+"_vs_seq", one(seq/took, "ratio"))
			l.set("sieve."+name+"_messages", one(float64(comm.Messages), "count"))
			l.set("sieve."+name+"_mb", one(float64(comm.Bytes)/(1<<20), "MiB"))
		}
	}
	p.PipeClientForward = true
	solve("pipe_clientforward", pipeCombo, p)
}
