package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"aspectpar/internal/apps/imagepipe"
	"aspectpar/internal/apps/mandel"
	"aspectpar/internal/exec"
	"aspectpar/internal/par"
	"aspectpar/internal/sieve"
)

// config is what a workload is built from: the seed every input derives
// from, and a divisor that shrinks the fixed sizes for the smoke test.
type config struct {
	seed  int64
	scale int // 1 is the benchmark's size; the smoke test runs at 50
	// corruptEvery breaks the Tally servant on purpose (smoke test only).
	corruptEvery int64
}

func (c config) n(full int) int { return max(1, full/c.scale) }

// measure collects what the blocks of one run observed.
type measure struct {
	rate      []float64 // verified operations per second, one entry per pass
	latency   []float64 // seconds per lone operation
	attempted int64
	failed    int64
	errs      []string
	// short shrinks a block to what the traced pass needs.
	short bool
}

// shortLone is a short block's lone operations: the traced pass's plain
// blocks together then carry the 1,000 samples a p99 needs.
const shortLone = 350

func (m *measure) fail(n int64, format string, args ...any) {
	m.failed += n
	if len(m.errs) < 8 {
		m.errs = append(m.errs, fmt.Sprintf(format, args...))
	}
}

// instance is one set-up of a workload: the stack is up, inputs and oracle
// are made, the path is warm.
type instance interface {
	// block runs one measurement block — a throughput pass and the block's
	// lone-operation latency samples — and checks every output.
	block(m *measure, rec *recorder)
	// finish runs the end-of-run checks and reports the layer counters the
	// stack's public *Stats show for what ran since set-up.
	finish(m *measure, counters map[string]sample)
	close()
}

type workload struct {
	name  string
	setup func(c config, rec *recorder, probe *servantProbe) (instance, error)
}

// The seven workloads, in the order they are reported. BENCHMARK.json says
// why each exists.
var workloads = []workload{
	{"sieve-farm", func(c config, _ *recorder, _ *servantProbe) (instance, error) { return setupSieve(c, farmCombo) }},
	{"sieve-pipe", func(c config, _ *recorder, _ *servantProbe) (instance, error) { return setupSieve(c, pipeCombo) }},
	{"call-small", func(c config, rec *recorder, probe *servantProbe) (instance, error) {
		return setupCalls(c, rec, probe, callShape{ints: 16, window: 64, pass: 100_000, lone: 2_000, warm: 30_000})
	}},
	{"call-bulk", func(c config, rec *recorder, probe *servantProbe) (instance, error) {
		return setupCalls(c, rec, probe, callShape{ints: 65_536, window: 8, pass: 1_500, lone: 100, warm: 300, echo: true})
	}},
	{"call-journaled", func(c config, rec *recorder, probe *servantProbe) (instance, error) {
		return setupCalls(c, rec, probe, callShape{ints: 16, window: 64, pass: 100_000, lone: 2_000, warm: 30_000, journal: true})
	}},
	{"stream-frames", func(c config, _ *recorder, _ *servantProbe) (instance, error) { return setupStream(c) }},
	{"woven-local", func(c config, _ *recorder, _ *servantProbe) (instance, error) { return setupWoven(c) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- sieve-farm, sieve-pipe ---------------------------------------------------

// The paper's headline farm with this reproduction's stealing scheduler, and
// the pipeline of its Fig 16, both over real TCP.
var (
	farmCombo = sieve.Combo{Partition: sieve.PartStealingFarm, Concurrency: sieve.ConcMerged, Distribution: sieve.DistNet}
	pipeCombo = sieve.Combo{Partition: sieve.PartPipeline, Concurrency: sieve.ConcAsync, Distribution: sieve.DistNet}
)

// sieveParams is the paper's evaluation shape (Section 6): 10,000,000
// candidates in 50 messages, here over 4 filters on 2 loopback nodes. The
// seed moves Max, so the candidate list and the prime count differ per seed.
//
// Scaled down, the packs get fewer, not just smaller, and never more than 8:
// with 4 stages on 2 nodes the forward lanes form a cycle, and more small
// packs in flight than rmi.DefaultSendWindow (32) can fill both nodes' send
// windows and deadlock it (README, known product bugs).
func sieveParams(c config) sieve.Params {
	return sieve.Params{
		Max:        int32(c.n(10_000_000) - 2*int(uint64(c.seed)%50_000)/c.scale),
		Packs:      max(8, c.n(50)),
		Filters:    4,
		NetNodes:   2,
		NetCodec:   "binary",
		NetStreams: 3,
	}
}

type sieveInst struct {
	combo     sieve.Combo
	params    sieve.Params
	wantCount int
	wantSum   uint64
	last      sieve.Result
	solves    int64
	sched     par.StealStats
	comm      par.CommStats
}

func setupSieve(c config, combo sieve.Combo) (instance, error) {
	s := &sieveInst{combo: combo, params: sieveParams(c)}
	s.wantCount, s.wantSum = sieve.Checksum(sieve.Reference(s.params.Max))
	var m measure
	warm := *s // the warm-up solve's counters are not the run's
	warm.block(&m, nil)
	if m.failed > 0 {
		return nil, fmt.Errorf("%s warm-up solve: %v", combo, m.errs)
	}
	return s, nil
}

// block is one full solve. RunCombo launches fresh nodes every time: a
// second pipeline run against the same daemons returns only the seed primes
// (README, known product bugs), and fresh nodes are what a user's run pays.
func (s *sieveInst) block(m *measure, rec *recorder) {
	m.attempted++
	id := rec.begin("sieve.RunCombo", 0, m.attempted)
	start := time.Now()
	res, err := sieve.RunCombo(s.combo, s.params)
	took := time.Since(start).Seconds()
	rec.end(id)
	switch {
	case err != nil:
		m.fail(1, "%s: %v", s.combo, err)
		return
	case res.PrimeCount != s.wantCount || res.PrimeSum != s.wantSum:
		m.fail(1, "%s: %d primes summing to %d, oracle has %d summing to %d",
			s.combo, res.PrimeCount, res.PrimeSum, s.wantCount, s.wantSum)
		return
	case res.Steals.Executed != res.Steals.Seeded+res.Steals.Splits:
		m.fail(1, "%s: executed %d packs, seeded %d + split %d",
			s.combo, res.Steals.Executed, res.Steals.Seeded, res.Steals.Splits)
		return
	}
	m.rate = append(m.rate, 1/took)
	m.latency = append(m.latency, took)
	s.last = res
	s.solves++
	s.sched.Executed += res.Steals.Executed
	s.sched.Splits += res.Steals.Splits
	s.sched.Steals += res.Steals.Steals
	s.comm.Messages += res.Comm.Messages
	s.comm.Bytes += res.Comm.Bytes
}

func (s *sieveInst) finish(m *measure, counters map[string]sample) {
	if s.solves == 0 {
		return
	}
	counters["par.sched.executed"] = perOp(float64(s.sched.Executed), s.solves, "count")
	counters["par.sched.splits"] = perOp(float64(s.sched.Splits), s.solves, "count")
	counters["par.sched.steals"] = perOp(float64(s.sched.Steals), s.solves, "count")
	commCounters(counters, s.comm, s.solves)
	topoCounters(counters, s.last.Topo, 1)
}

func (s *sieveInst) close() {}

// commCounters reports the middleware's traffic per operation.
func commCounters(counters map[string]sample, comm par.CommStats, ops int64) {
	counters["comm.messages_per_op"] = perOp(float64(comm.Messages), ops, "count")
	counters["comm.mib_per_op"] = perOp(float64(comm.Bytes)/(1<<20), ops, "MiB")
}

// topoCounters reports the forward lane's counters, the hops per operation.
func topoCounters(counters map[string]sample, t par.TopologyStats, ops int64) {
	counters["topology.installs"] = one(float64(t.Installs), "count")
	counters["topology.peer_forwards_per_op"] = perOp(float64(t.PeerForwards), ops, "count")
	counters["topology.stranded"] = one(float64(t.Stranded), "count")
	counters["topology.redelivered"] = one(float64(t.Redelivered), "count")
}

// --- call-small, call-bulk, call-journaled ------------------------------------

// callShape is what tells the three call workloads apart.
type callShape struct {
	ints    int  // int32 elements per request
	window  int  // calls kept in flight
	pass    int  // windowed calls per throughput pass
	lone    int  // synchronous calls per block, one in flight
	warm    int  // warm-up calls at set-up
	echo    bool // Echo the pack back instead of folding it into the sum
	journal bool // fault journal and checkpoints on
}

const callObjects = 3 // one per stream

type callInst struct {
	shape   callShape
	net     *tallyNet
	ctx     exec.Context
	done    exec.Chan
	payload []int32
	packSum int64
	method  string
	// per object: calls issued, replies checked, and — traced passes only —
	// the open spans of the calls in flight, in issue order.
	issued  [callObjects]int64
	settled [callObjects]int64
	open    [callObjects][]int64
}

func setupCalls(c config, rec *recorder, probe *servantProbe, shape callShape) (instance, error) {
	var opts []par.NetOption
	if shape.journal {
		opts = append(opts, par.WithFaultPolicy(par.FaultPolicy{Enabled: true, CheckpointEvery: 256}))
	}
	net, err := startTallyNet(rec, probe, 1, callObjects, c.corruptEvery, opts...)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.seed))
	ci := &callInst{shape: shape, net: net, ctx: exec.Real(), method: "Add", payload: randomPack(rng, shape.ints)}
	ci.done = ci.ctx.NewChan(shape.window)
	ci.packSum = sum32(ci.payload)
	if shape.echo {
		ci.method = "Echo"
	}
	ci.shape.pass, ci.shape.lone, ci.shape.warm = c.n(shape.pass), c.n(shape.lone), c.n(shape.warm)
	var warm measure
	ci.windowed(&warm, nil, ci.shape.warm)
	if warm.failed > 0 && c.corruptEvery == 0 {
		net.close()
		return nil, fmt.Errorf("warm-up: %v", warm.errs)
	}
	return ci, nil
}

// check verifies one reply. An Add reply names its object in its high bits
// and must carry exactly the sum of every pack that object was sent so far:
// a lost, repeated or reordered call shows in the next reply. An Echo reply
// must equal the pack element by element.
func (ci *callInst) check(m *measure, res []any, err error) (object int) {
	m.attempted++
	if err != nil {
		m.fail(1, "%s: %v", ci.method, err)
		return -1
	}
	if ci.shape.echo {
		got, _ := res[0].([]int32)
		if !slices.Equal(got, ci.payload) {
			m.fail(1, "Echo returned a different pack (%d elements)", len(got))
		}
		return -1
	}
	v, _ := res[0].(int64)
	object = int(v >> indexShift)
	if object < 0 || object >= callObjects {
		m.fail(1, "Add reply %#x names no object", v)
		return -1
	}
	ci.settled[object]++
	if want := int64(object)<<indexShift + ci.settled[object]*ci.packSum; v != want {
		m.fail(1, "Add reply %d of object %d is %#x, want %#x", ci.settled[object], object, v, want)
	}
	return object
}

// windowed keeps shape.window calls in flight until n have completed — a
// closed loop: the next call is issued when a reply comes back.
func (ci *callInst) windowed(m *measure, rec *recorder, n int) {
	issued, completed := 0, 0
	for completed < n {
		for issued-completed < ci.shape.window && issued < n {
			o := issued % callObjects
			ci.issued[o]++
			if rec != nil {
				ci.open[o] = append(ci.open[o], rec.begin("netrmi.InvokeAsync", 0, opID(int64(o), ci.issued[o])))
			}
			ci.net.mw.InvokeAsync(ci.ctx, ci.net.objs[o], ci.method, []any{ci.payload}, false, ci.done)
			issued++
		}
		v, ok := ci.done.Recv(ci.ctx)
		if !ok {
			m.fail(int64(n-completed), "completion channel closed")
			m.attempted += int64(n - completed)
			return
		}
		res, err := v.(*par.Completion).Reclaim(ci.ctx)
		o := ci.check(m, res, err)
		if rec != nil {
			ci.endOldest(rec, o)
		}
		completed++
	}
}

// endOldest closes the span of the call a reply belongs to. Replies of one
// object come back in issue order; an Echo reply names no object, so it
// closes the oldest span open anywhere.
func (ci *callInst) endOldest(rec *recorder, object int) {
	if object < 0 {
		for o, q := range ci.open {
			if len(q) > 0 && (object < 0 || q[0] < ci.open[object][0]) {
				object = o
			}
		}
	}
	if object < 0 || len(ci.open[object]) == 0 {
		return
	}
	rec.end(ci.open[object][0])
	ci.open[object] = ci.open[object][1:]
}

func (ci *callInst) block(m *measure, rec *recorder) {
	pass, lone := ci.shape.pass, ci.shape.lone
	if m.short {
		pass, lone = max(1, pass/5), min(pass, shortLone)
	}
	start := time.Now()
	ci.windowed(m, rec, pass)
	m.rate = append(m.rate, float64(pass)/time.Since(start).Seconds())
	for i := 0; i < lone; i++ {
		o := i % callObjects
		ci.issued[o]++
		id := rec.begin("netrmi.Invoke", 0, opID(int64(o), ci.issued[o]))
		t := time.Now()
		res, err := ci.net.mw.Invoke(ci.ctx, ci.net.objs[o], ci.method, []any{ci.payload}, false)
		m.latency = append(m.latency, time.Since(t).Seconds())
		rec.end(id)
		ci.check(m, res, err)
	}
}

func (ci *callInst) finish(m *measure, counters map[string]sample) {
	var calls int64
	for _, n := range ci.issued {
		calls += n
	}
	commCounters(counters, ci.net.mw.Stats(), calls)
	if !ci.shape.journal {
		return
	}
	// The journal must have checkpointed and never replayed: nothing failed.
	fs := ci.net.mw.FaultStats()
	m.attempted++
	if fs.Replays != 0 || fs.Checkpoints == 0 {
		m.fail(1, "fault journal: %d replays (want 0), %d checkpoints (want some)", fs.Replays, fs.Checkpoints)
	}
	counters["netfault.checkpoints"] = one(float64(fs.Checkpoints), "count")
	counters["netfault.replays"] = one(float64(fs.Replays), "count")
}

func (ci *callInst) close() { ci.net.close() }

// --- stream-frames -------------------------------------------------------------

const (
	frameLen   = 256
	frameWave  = 32
	framePool  = 512 // distinct frames, cycled; a multiple of frameWave
	streamWarm = 3_000
)

type streamInst struct {
	svc   *imagepipe.Service
	in    []imagepipe.Frame
	want  []imagepipe.Frame
	next  int           // next pool index to submit
	owner map[int64]int // stream id → pool index, for frames in flight
	pass  int
	lone  int
	// time inside Submit and Flush during throughput passes, and the passes'
	// own wall and frames, for the service's layer shares
	submit, flush, wall time.Duration
	frames              int64
}

// randomFrames makes n seeded frames of frameLen samples.
func randomFrames(rng *rand.Rand, n int) []imagepipe.Frame {
	frames := make([]imagepipe.Frame, n)
	for i := range frames {
		frames[i] = make(imagepipe.Frame, frameLen)
		for j := range frames[i] {
			frames[i][j] = rng.Float64()
		}
	}
	return frames
}

func setupStream(c config) (instance, error) {
	rng := rand.New(rand.NewSource(c.seed))
	si := &streamInst{owner: make(map[int64]int), pass: c.n(6_000), lone: c.n(100)}
	si.in = randomFrames(rng, framePool)
	si.want = imagepipe.Sequential(si.in)
	svc, err := imagepipe.StartService(imagepipe.ServiceConfig{Nodes: 2, Window: 64})
	if err != nil {
		return nil, err
	}
	si.svc = svc
	var warm measure
	si.stream(&warm, nil, c.n(streamWarm))
	if warm.failed > 0 {
		svc.Close()
		return nil, fmt.Errorf("warm-up: %v", warm.errs)
	}
	si.submit, si.flush, si.wall, si.frames = 0, 0, 0, 0
	return si, nil
}

// submitNext feeds the next n pool frames (n ≤ frameWave, never wrapping)
// and returns the time spent inside Submit.
func (si *streamInst) submitNext(m *measure, rec *recorder, n int, op int64) time.Duration {
	if si.next+n > framePool {
		si.next = 0
	}
	id := rec.begin("service.Submit", 0, op)
	start := time.Now()
	ids, err := si.svc.Submit(si.in[si.next : si.next+n])
	took := time.Since(start)
	rec.end(id)
	m.attempted += int64(n)
	if err != nil {
		m.fail(int64(n), "Submit: %v", err)
		return took
	}
	for i, id := range ids {
		si.owner[id] = si.next + i
	}
	si.next += n
	return took
}

// deliver flushes the stream, takes what was delivered and compares each
// frame with the sequential filter chain; it returns the time spent inside
// Flush. A frame not delivered after Flush returned is a lost frame.
func (si *streamInst) deliver(m *measure, rec *recorder, op int64) time.Duration {
	id := rec.begin("service.Flush", 0, op)
	start := time.Now()
	err := si.svc.Flush()
	took := time.Since(start)
	rec.end(id)
	if err != nil {
		m.fail(1, "Flush: %v", err)
	}
	id = rec.begin("service.Take", 0, op)
	got := si.svc.Take()
	rec.end(id)
	for fid, f := range got {
		idx, ok := si.owner[fid]
		if !ok {
			m.fail(1, "frame %d delivered but never submitted (or delivered twice)", fid)
			continue
		}
		delete(si.owner, fid)
		if !slices.Equal(f, si.want[idx]) {
			m.fail(1, "frame %d differs from the sequential chain", fid)
		}
	}
	if lost := len(si.owner); lost > 0 {
		m.fail(int64(lost), "%d frames never delivered", lost)
		clear(si.owner)
	}
	return took
}

// stream pushes n frames through in waves, then drains, and adds the pass
// to the service's layer shares.
func (si *streamInst) stream(m *measure, rec *recorder, n int) time.Duration {
	start := time.Now()
	for lo := 0; lo < n; lo += frameWave {
		si.submit += si.submitNext(m, rec, min(frameWave, n-lo), int64(lo/frameWave+1))
	}
	si.flush += si.deliver(m, rec, int64(n/frameWave+2))
	took := time.Since(start)
	si.wall += took
	si.frames += int64(n)
	return took
}

func (si *streamInst) block(m *measure, rec *recorder) {
	pass, lone := si.pass, si.lone
	if m.short {
		pass, lone = max(1, pass/3), min(pass, shortLone)
	}
	m.rate = append(m.rate, float64(pass)/si.stream(m, rec, pass).Seconds())
	for i := 0; i < lone; i++ {
		op := int64(1_000_000 + i)
		start := time.Now()
		si.submitNext(m, rec, 1, op)
		si.deliver(m, rec, op)
		m.latency = append(m.latency, time.Since(start).Seconds())
	}
}

func (si *streamInst) finish(m *measure, counters map[string]sample) {
	st := si.svc.Stats()
	if st.Duplicates != 0 {
		m.fail(st.Duplicates, "%d duplicate deliveries", st.Duplicates)
	}
	if si.frames > 0 {
		n := int(si.frames)
		counters["service.submit_share"] = sample{Value: float64(si.submit) / float64(si.wall), Unit: "ratio", N: n}
		counters["service.flush_share"] = sample{Value: float64(si.flush) / float64(si.wall), Unit: "ratio", N: n}
		counters["service.submit_us_per_frame"] = perOp(float64(si.submit.Microseconds()), si.frames, "us")
	}
	counters["service.retried"] = one(float64(st.Retried), "count")
	counters["service.duplicates"] = one(float64(st.Duplicates), "count")
	topoCounters(counters, st.Topo, max(1, st.Completed))
}

func (si *streamInst) close() { si.svc.Close() }

// --- woven-local ----------------------------------------------------------------

type wovenInst struct {
	spec mandel.Spec
	want [][]uint16
}

// wovenSpec is a tall, narrow view: 8192 rows of 64 pixels make the woven
// per-row call, not the arithmetic, the larger share of a render. The seed
// shifts the viewport.
func wovenSpec(c config) mandel.Spec {
	spec := mandel.DefaultSpec(64, c.n(8192))
	shift := float64(c.seed%1000) * 1e-4
	spec.XMin += shift
	spec.XMax += shift
	return spec
}

func setupWoven(c config) (instance, error) {
	wi := &wovenInst{spec: wovenSpec(c)}
	wi.want = mandel.Sequential(wi.spec)
	var warm measure
	for i := 0; i < 3; i++ {
		wi.block(&warm, nil)
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up render: %v", warm.errs)
	}
	return wi, nil
}

// block is one render: one woven asynchronous farm call per row.
func (wi *wovenInst) block(m *measure, rec *recorder) {
	rows := int64(wi.spec.Height)
	m.attempted += rows
	w := mandel.Build(wi.spec, 2, mandel.Config{Schedule: mandel.Static})
	id := rec.begin("par.Render", 0, m.attempted)
	start := time.Now()
	img, err := w.Render(exec.Real(), wi.spec)
	took := time.Since(start).Seconds()
	rec.end(id)
	if err != nil {
		m.fail(rows, "Render: %v", err)
		return
	}
	bad := int64(0)
	for r := range img {
		if !slices.Equal(img[r], wi.want[r]) {
			bad++
		}
	}
	if bad > 0 {
		m.fail(bad, "%d rows differ from the sequential render", bad)
	}
	m.rate = append(m.rate, float64(rows)/took)
	m.latency = append(m.latency, took)
}

func (wi *wovenInst) finish(*measure, map[string]sample) {}
func (wi *wovenInst) close()                             {}
