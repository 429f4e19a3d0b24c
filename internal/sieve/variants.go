package sieve

import (
	"fmt"
	"slices"
	"time"

	"aspectpar/internal/aspect"
	"aspectpar/internal/clock"
	"aspectpar/internal/cluster"
	"aspectpar/internal/exec"
	"aspectpar/internal/par"
	"aspectpar/internal/rmi"
	"aspectpar/internal/sim"
)

// Variant names one module combination — the rows of the paper's Table 1,
// plus the sequential core, the hand-coded Figure 16 baseline, and the
// work-stealing farm this reproduction adds beyond the paper.
type Variant string

// The tested module combinations.
const (
	// Seq is the unwoven sequential core (no modules plugged).
	Seq Variant = "Seq"
	// FarmThreads: farm partition + concurrency, no distribution — the
	// shared-memory version, limited to one machine.
	FarmThreads Variant = "FarmThreads"
	// PipeRMI: pipeline partition + concurrency + RMI distribution.
	PipeRMI Variant = "PipeRMI"
	// FarmRMI: farm partition + concurrency + RMI distribution.
	FarmRMI Variant = "FarmRMI"
	// FarmDRMI: dynamic farm (partition and concurrency merged) + RMI.
	FarmDRMI Variant = "FarmDRMI"
	// FarmMPP: farm partition + concurrency + MPP distribution.
	FarmMPP Variant = "FarmMPP"
	// FarmStealing: work-stealing adaptive farm (partition and concurrency
	// merged; per-worker deques, steal-half, split-on-steal) + RMI. This is
	// the scheduler the paper's static farms lack: it keeps scaling when
	// pack costs are heterogeneous.
	FarmStealing Variant = "FarmStealing"
	// HandPipeRMI is the hand-coded pipeline-RMI baseline of Figure 16:
	// the same computation and communication with parallelisation code
	// tangled into the application (no weaver, no aspects).
	HandPipeRMI Variant = "HandPipeRMI"
)

// Variants lists the Table 1 combinations in the paper's order, followed by
// the stealing farm added by this reproduction.
func Variants() []Variant {
	return []Variant{FarmThreads, PipeRMI, FarmRMI, FarmDRMI, FarmMPP, FarmStealing}
}

// --- The module matrix -------------------------------------------------------

// PartitionKind is the partition-protocol axis of the module matrix.
type PartitionKind string

// The partition protocols a sieve run can plug.
const (
	PartPipeline     PartitionKind = "pipeline"
	PartFarm         PartitionKind = "farm"
	PartDynamicFarm  PartitionKind = "dynamic-farm"
	PartStealingFarm PartitionKind = "stealing-farm"
)

// ConcurrencyKind is the concurrency axis of the module matrix.
type ConcurrencyKind string

// The concurrency choices. Self-scheduling partitions (dynamic and stealing
// farm) manage their own activities, so for them the axis is pinned to
// ConcMerged; the other partitions compose with ConcNone (valid but
// sequential, like OpenMP with one thread) or ConcAsync (the paper's
// concurrency module).
const (
	ConcNone   ConcurrencyKind = "none"
	ConcAsync  ConcurrencyKind = "async"
	ConcMerged ConcurrencyKind = "merged"
)

// DistributionKind is the distribution axis of the module matrix.
type DistributionKind string

// The distribution choices. DistNone/DistRMI/DistMPP run on the simulated
// cluster under virtual time; DistNet runs the same woven stack over real
// TCP — par.NetRMI against rmi.Node worker daemons — under the real exec
// backend (wall-clock elapsed times, no cost model).
const (
	DistNone DistributionKind = "none"
	DistRMI  DistributionKind = "rmi"
	DistMPP  DistributionKind = "mpp"
	DistNet  DistributionKind = "net"
)

// Combo is one cell of the partition × concurrency × distribution matrix.
// The named Variants are the paper's chosen cells; RunCombo can run any
// valid cell, and the conformance harness runs them all.
type Combo struct {
	Partition    PartitionKind
	Concurrency  ConcurrencyKind
	Distribution DistributionKind
}

// String renders the combo as "partition/concurrency/distribution"; the zero
// combo (sequential core) renders as "seq".
func (c Combo) String() string {
	if (c == Combo{}) {
		return "seq"
	}
	return fmt.Sprintf("%s/%s/%s", c.Partition, c.Concurrency, c.Distribution)
}

// selfScheduling reports whether the partition manages its own activities.
func (p PartitionKind) selfScheduling() bool {
	return p == PartDynamicFarm || p == PartStealingFarm
}

// Validate reports why the combo cannot be built, or nil.
func (c Combo) Validate() error {
	switch c.Partition {
	case PartPipeline, PartFarm:
		if c.Concurrency != ConcNone && c.Concurrency != ConcAsync {
			return fmt.Errorf("sieve: %s composes with concurrency %q or %q, not %q",
				c.Partition, ConcNone, ConcAsync, c.Concurrency)
		}
	case PartDynamicFarm, PartStealingFarm:
		if c.Concurrency != ConcMerged {
			return fmt.Errorf("sieve: %s is self-scheduling; concurrency must be %q", c.Partition, ConcMerged)
		}
	default:
		return fmt.Errorf("sieve: unknown partition %q", c.Partition)
	}
	switch c.Distribution {
	case DistNone, DistRMI, DistMPP, DistNet:
	default:
		return fmt.Errorf("sieve: unknown distribution %q", c.Distribution)
	}
	return nil
}

// AllCombos enumerates every valid simulated cell of the module matrix: each
// partition with every concurrency choice it admits, times every simulated
// distribution. The real-TCP cells are enumerated separately by NetCombos —
// they run under wall-clock time, so sweeps that want deterministic virtual
// times exclude them.
func AllCombos() []Combo {
	var out []Combo
	for _, part := range []PartitionKind{PartPipeline, PartFarm, PartDynamicFarm, PartStealingFarm} {
		for _, conc := range part.concurrencies() {
			for _, dist := range []DistributionKind{DistNone, DistRMI, DistMPP} {
				out = append(out, Combo{Partition: part, Concurrency: conc, Distribution: dist})
			}
		}
	}
	return out
}

// NetCombos enumerates the module-matrix cells that run over the real-TCP
// middleware: every partition × concurrency pair with DistNet.
func NetCombos() []Combo {
	var out []Combo
	for _, part := range []PartitionKind{PartPipeline, PartFarm, PartDynamicFarm, PartStealingFarm} {
		for _, conc := range part.concurrencies() {
			out = append(out, Combo{Partition: part, Concurrency: conc, Distribution: DistNet})
		}
	}
	return out
}

// concurrencies lists the concurrency choices a partition admits.
func (p PartitionKind) concurrencies() []ConcurrencyKind {
	if p.selfScheduling() {
		return []ConcurrencyKind{ConcMerged}
	}
	return []ConcurrencyKind{ConcNone, ConcAsync}
}

// ComboOf maps a named variant to its matrix cell; ok is false for the
// special rows (Seq, HandPipeRMI) that are not woven combinations. Callers
// that want a named variant over a different distribution (e.g. the real
// middleware) take the cell and swap the axis.
func ComboOf(v Variant) (Combo, bool) {
	switch v {
	case FarmThreads:
		return Combo{PartFarm, ConcAsync, DistNone}, true
	case PipeRMI:
		return Combo{PartPipeline, ConcAsync, DistRMI}, true
	case FarmRMI:
		return Combo{PartFarm, ConcAsync, DistRMI}, true
	case FarmDRMI:
		return Combo{PartDynamicFarm, ConcMerged, DistRMI}, true
	case FarmMPP:
		return Combo{PartFarm, ConcAsync, DistMPP}, true
	case FarmStealing:
		return Combo{PartStealingFarm, ConcMerged, DistRMI}, true
	default:
		return Combo{}, false
	}
}

// Table1Row describes one variant in the paper's Table 1 columns.
func Table1Row(v Variant) (partition, concurrency, distribution string) {
	switch v {
	case FarmThreads:
		return "Farm", "Yes", "No"
	case PipeRMI:
		return "Pipeline", "Yes", "RMI"
	case FarmRMI:
		return "Farm", "Yes", "RMI"
	case FarmDRMI:
		return "Dynamic Farm", "(merged)", "RMI"
	case FarmMPP:
		return "Farm", "Yes", "MPP"
	case FarmStealing:
		return "Stealing Farm", "(merged)", "RMI"
	case Seq:
		return "-", "-", "-"
	case HandPipeRMI:
		return "Pipeline (hand-coded)", "hand-coded", "RMI (hand-coded)"
	default:
		return "?", "?", "?"
	}
}

// DefaultNsPerOp is the virtual cost of one trial division, calibrated so
// the sequential sieve at the paper's parameters (max prime 10,000,000,
// 281,802,948 trial divisions) takes ≈6.3 s — the paper's single-filter
// execution time on a 3.2 GHz Xeon running Java 1.5.
const DefaultNsPerOp = 22.4

// DefaultDispatchOverhead is the per-joinpoint cost charged by the metering
// aspect in woven runs: the measured steady-state cost of one weaver
// dispatch (chain cache hit + advice calls), standing in for AspectJ's
// non-inlined advice methods. The hand-coded baseline does not pay it;
// Figure 16 compares the two.
const DefaultDispatchOverhead = 1 * time.Microsecond

// Params configures one sieve experiment.
type Params struct {
	// Max is the largest candidate number (the paper: 10,000,000).
	Max int32
	// Packs is the number of messages the candidate list is split into
	// (the paper: 50 messages of 100,000 odd numbers).
	Packs int
	// Filters is the number of pipeline elements / farm workers.
	Filters int
	// NsPerOp is the virtual cost per trial division; zero selects
	// DefaultNsPerOp.
	NsPerOp float64
	// DispatchOverhead is the per-joinpoint weaving cost; negative
	// disables, zero selects DefaultDispatchOverhead for woven variants.
	DispatchOverhead time.Duration
	// Cluster overrides the simulated testbed; zero value selects the
	// paper's 7-node configuration.
	Cluster cluster.Config
	// PackingDegree, when > 1, plugs the communication-packing optimisation
	// aspect: that many packs merge into one message (ablation B).
	PackingDegree int
	// Skew, when > 1, makes every Filters-th pack Skew times larger than
	// the others — the load imbalance that separates the dynamic and
	// stealing farms from the static one (ablation C).
	Skew float64
	// Window is the latency-hiding dispatch window of the self-scheduling
	// farms (FarmDRMI, FarmStealing): packs kept in flight per worker. 0
	// selects par.DefaultWindow, 1 the synchronous per-pack round trip.
	Window int
	// KeepPrimes retains the full sorted prime list in Result.Primes —
	// used by the conformance harness; large sweeps leave it off and
	// compare checksums.
	KeepPrimes bool
	// NetAddrs lists rmi.Node worker daemon addresses for DistNet runs:
	// entry i plays exec.NodeID(i), the universe Placement policies select
	// from. Empty launches NetNodes in-process loopback node daemons for the
	// duration of the run — each with its own fresh domain, the process
	// model without the processes.
	NetAddrs []string
	// PoolAddr switches a DistNet run from the static address table to the
	// elastic pool: the address of an rmi.Registry the worker daemons
	// register and heartbeat with. The run discovers its membership there,
	// places over the currently eligible nodes, widens the farm when a node
	// joins mid-run (stealing farm only) and cordons/drains members that
	// stop beating. Takes precedence over NetAddrs/NetNodes.
	PoolAddr string
	// PoolOpts tunes the pool control plane (poll interval, cordon
	// threshold, drain grace, namespace) when PoolAddr is set.
	PoolOpts []par.PoolOption
	// NetNodes is the number of in-process loopback daemons a DistNet run
	// launches when NetAddrs is empty; 0 selects 2.
	NetNodes int
	// NetCodec selects the frame codec of a DistNet run's node connections
	// ("" or "binary" for the compact format, "gob" for the self-describing
	// one). Every node answers each connection in the codec it opened with.
	NetCodec string
	// NetStreams multiplexes each node connection into that many dispatch
	// streams (objects assigned round-robin, per-object FIFO preserved);
	// values below 2 keep the single pipelined lane.
	NetStreams int
	// PipeClientForward forces a DistNet pipeline run onto the caller-side
	// forwarding fallback (PipelineConfig.ClientForward): every hop's
	// results double back through the driver. The default routes hops
	// peer-to-peer under an installed pipeline topology; the conformance cells
	// pin both modes byte-equal.
	PipeClientForward bool
	// Faults enables NetRMI's fault-tolerance subsystem for DistNet runs:
	// journaled calls, reconnect/replay across transport blips, state
	// reconstruction after a node restart, placement failover off dead
	// nodes (see par.FaultPolicy). Zero keeps the fail-fast transport.
	Faults par.FaultPolicy
	// Clock overrides the time source of a DistNet run's middleware and
	// owned node daemons — reconnect backoffs, retry graces, drain windows
	// and RTT stamps all ride it. Nil keeps the wall clock; the virtual-time
	// chaos harness installs a clock.Virtual so failure schedules run in
	// seeded virtual time.
	Clock clock.Clock
}

// PaperParams returns the evaluation parameters of Section 6.
func PaperParams(filters int) Params {
	return Params{Max: 10_000_000, Packs: 50, Filters: filters}
}

func (p Params) withDefaults() Params {
	if p.NsPerOp == 0 {
		p.NsPerOp = DefaultNsPerOp
	}
	if p.DispatchOverhead == 0 {
		p.DispatchOverhead = DefaultDispatchOverhead
	}
	if p.DispatchOverhead < 0 {
		p.DispatchOverhead = 0
	}
	if p.Cluster.Machines == 0 {
		p.Cluster = cluster.PaperTestbed()
	}
	if p.Packs <= 0 {
		p.Packs = 1
	}
	return p
}

// Result is the outcome of one sieve run.
type Result struct {
	Variant Variant
	Filters int
	// Elapsed is the virtual execution time on the simulated testbed.
	Elapsed time.Duration
	// PrimeCount and PrimeSum checksum the computed primes.
	PrimeCount int
	PrimeSum   uint64
	// Primes is the full sorted prime list, retained only when
	// Params.KeepPrimes is set.
	Primes []int32
	// Comm aggregates middleware traffic (zero for local variants).
	Comm par.CommStats
	// Spawned counts asynchronous activities launched by the concurrency
	// module (zero when the module is not plugged).
	Spawned int64
	// Steals reports the work-stealing scheduler's counters (zero unless
	// the stealing farm ran).
	Steals par.StealStats
	// Faults reports the fault-tolerance subsystem's counters (zero unless
	// Params.Faults enabled it on a DistNet run).
	Faults par.FaultStats
	// Topo reports the peer-to-peer pipeline forward lane's counters (zero
	// unless a DistNet pipeline ran with a topology installed).
	Topo par.TopologyStats
}

// Run executes one variant and returns its result. Every run builds a fresh
// domain, weaver, module stack and simulated cluster, so runs are
// independent and deterministic.
func Run(v Variant, p Params) (Result, error) {
	p = p.withDefaults()
	switch v {
	case HandPipeRMI:
		return runHandCoded(p)
	case Seq:
		return runWoven(v, Combo{}, p)
	}
	c, ok := ComboOf(v)
	if !ok {
		return Result{}, fmt.Errorf("sieve: unknown variant %q", v)
	}
	return runWoven(v, c, p)
}

// RunCombo executes an arbitrary valid cell of the module matrix — the
// conformance harness's entry point. The zero Combo runs the sequential
// core.
func RunCombo(c Combo, p Params) (Result, error) {
	p = p.withDefaults()
	if (c != Combo{}) {
		if err := c.Validate(); err != nil {
			return Result{}, err
		}
	}
	return runWoven(Variant(c.String()), c, p)
}

// DefineClass registers PrimeFilter on a domain: the bodies delegate to the
// sequential core, the call sites route through the weaver. It is shared by
// the in-process runs and the rminode worker daemon, which hosts the class
// server-side — both ends of a DistNet run define it identically, so the
// declared wire types agree.
func DefineClass(dom *par.Domain) *par.Class {
	return dom.Define("PrimeFilter",
		func(args []any) (any, error) {
			return NewPrimeFilter(args[0].(int32), args[1].(int32))
		},
		map[string]par.MethodBody{
			"Filter": func(target any, args []any) ([]any, error) {
				nums, ok := args[0].([]int32)
				if !ok {
					// The sequential core's unsplit call: no partition
					// module built the candidate range.
					nums = args[0].(Odds).Build()
				}
				return []any{target.(*PrimeFilter).Filter(nums)}, nil
			},
			"Seeds": func(target any, args []any) ([]any, error) {
				return []any{target.(*PrimeFilter).Seeds()}, nil
			},
			"Accepted": func(target any, args []any) ([]any, error) {
				return []any{target.(*PrimeFilter).Accepted()}, nil
			},
			// Snapshot/Restore opt the class into the fault journal's bounded
			// replay: a checkpoint carries the survivors, the constructor
			// replay rebuilds the seeds (see par.FaultPolicy.CheckpointEvery).
			"Snapshot": func(target any, args []any) ([]any, error) {
				return []any{target.(*PrimeFilter).Snapshot()}, nil
			},
			"Restore": func(target any, args []any) ([]any, error) {
				target.(*PrimeFilter).Restore(args[0].([]int32))
				return nil, nil
			},
		}).Wire(int32(0), []int32(nil)).
		// The pipeline's forward derivation as a NAMED rule: pure data in,
		// data out, registered identically in the driver and in every worker
		// daemon (both call DefineClass), so a peer-to-peer topology can run
		// it node-side. It must stay semantically identical to the Forward
		// closure in build() — the conformance cells pin the two modes
		// byte-equal.
		DefineForward("survivors", func(stage int, results, args []any) []any {
			if len(results) == 0 {
				return nil
			}
			survivors, _ := results[0].([]int32)
			if len(survivors) == 0 {
				return nil
			}
			return []any{survivors}
		})
}

// splitPacks divides the candidate argument — an Odds range or a built
// []int32 list, cut at the same indices — into p.Packs packs: the paper's
// method-call split. skew > 1 makes every period-th pack skew times larger
// (for the load-imbalance ablation); skew ≤ 1 gives equal packs.
func splitPacks(packs int, skew float64, period int) func(args []any) [][]any {
	return func(args []any) [][]any {
		var size int
		var cut func(start, end int) any
		switch data := args[0].(type) {
		case Odds:
			size, cut = data.N, func(start, end int) any { return data.slice(start, end) }
		default:
			list := data.([]int32)
			size, cut = len(list), func(start, end int) any { return list[start:end:end] }
		}
		if size == 0 {
			return nil
		}
		n := min(packs, size) // a local: the wiring splits many lists
		// Pack weights: uniform, or period-spaced heavy packs.
		weights := make([]float64, n)
		total := 0.0
		for i := range weights {
			weights[i] = 1
			if skew > 1 && period > 0 && i%period == 0 {
				weights[i] = skew
			}
			total += weights[i]
		}
		out := make([][]any, 0, n)
		start := 0
		acc := 0.0
		for i := 0; i < n; i++ {
			acc += weights[i]
			end := int(acc / total * float64(size))
			if i == n-1 {
				end = size
			}
			if end <= start {
				continue
			}
			out = append(out, []any{cut(start, end)})
			start = end
		}
		return out
	}
}

// stageRanges divides the seed primes of [2,sqrtMax] into count contiguous
// ranges with balanced prime counts — the partition aspect pre-calculates
// the primes up to √max and distributes them over the pipeline elements.
func stageRanges(sqrtMax int32, count int) [][2]int32 {
	seeds := Reference(sqrtMax)
	ranges := make([][2]int32, count)
	per := (len(seeds) + count - 1) / count
	lo := int32(2)
	for i := 0; i < count; i++ {
		hiIdx := (i + 1) * per
		var hi int32
		if hiIdx >= len(seeds) || i == count-1 {
			hi = sqrtMax
		} else {
			hi = seeds[hiIdx-1]
		}
		if hi < lo {
			hi = lo
		}
		ranges[i] = [2]int32{lo, hi}
		lo = hi + 1
		if lo > sqrtMax {
			lo = sqrtMax + 1
		}
	}
	// The last range must always reach sqrtMax.
	ranges[count-1][1] = sqrtMax
	return ranges
}

type wiring struct {
	dom   *par.Domain
	class *par.Class
	stack *par.Stack
	cl    *cluster.Cluster
	net   *netEnv // real-TCP runs only

	pipe    *par.Pipeline
	farm    *par.Farm
	conc    *par.Concurrency
	dist    *par.Distribution
	packing *par.Packing
}

// netEnv is the environment of one DistNet run: the node daemons (owned when
// launched in-process, borrowed when the run targets external rminode
// processes), the middleware over them, and — for registry-backed runs — the
// elastic pool that keeps the node table live.
type netEnv struct {
	nodes []*rmi.Node // owned loopback daemons (nil entries never happen)
	mw    *par.NetRMI
	pool  *par.Pool // registry-backed runs only (Params.PoolAddr)
}

// netOptions translates the Params middleware knobs into DialNet options —
// shared by the static-table and pool paths so both middlewares are
// configured identically.
func (p Params) netOptions() ([]par.NetOption, error) {
	var netOpts []par.NetOption
	if p.Clock != nil {
		netOpts = append(netOpts, par.WithNetClock(p.Clock))
	}
	if p.Faults.Enabled {
		netOpts = append(netOpts, par.WithFaultPolicy(p.Faults))
	}
	if p.NetCodec != "" {
		codec, err := rmi.CodecByName(p.NetCodec)
		if err != nil {
			return nil, fmt.Errorf("sieve: net codec: %w", err)
		}
		netOpts = append(netOpts, par.WithCodec(codec))
	}
	if p.NetStreams > 1 {
		netOpts = append(netOpts, par.WithStreams(p.NetStreams))
	}
	return netOpts, nil
}

// startNetEnv builds the run's node environment. With PoolAddr set it dials
// the registry and lets the elastic pool discover the membership; otherwise
// it connects to the static p.NetAddrs table, or launches in-process loopback
// node daemons when none are given. Every owned daemon hosts PrimeFilter on
// its own fresh domain — the process model of a distributed deployment,
// without the processes.
func startNetEnv(p Params) (*netEnv, error) {
	if p.PoolAddr != "" {
		netOpts, err := p.netOptions()
		if err != nil {
			return nil, err
		}
		popts := append([]par.PoolOption{par.WithPoolNet(netOpts...)}, p.PoolOpts...)
		pool, err := par.DialPool(p.PoolAddr, popts...)
		if err != nil {
			return nil, fmt.Errorf("sieve: dial pool %s: %w", p.PoolAddr, err)
		}
		// No Reset here: the pool scopes its bindings in a fresh per-driver
		// namespace, so a borrowed daemon's previous placements cannot
		// collide with this run's.
		return &netEnv{mw: pool.Middleware(), pool: pool}, nil
	}
	addrs := p.NetAddrs
	env := &netEnv{}
	if len(addrs) == 0 {
		count := p.NetNodes
		if count <= 0 {
			count = 2
		}
		for i := 0; i < count; i++ {
			var nodeOpts []rmi.Option
			if p.Clock != nil {
				nodeOpts = append(nodeOpts, rmi.WithClock(p.Clock))
			}
			node := rmi.NewNode(exec.Real(), nodeOpts...)
			par.HostClass(node, DefineClass(par.NewDomain()))
			addr, err := node.Listen("127.0.0.1:0")
			if err != nil {
				env.close()
				return nil, fmt.Errorf("sieve: net node %d: %w", i, err)
			}
			env.nodes = append(env.nodes, node)
			addrs = append(addrs, addr)
		}
	}
	// DialNet fixes every middleware knob before the first connection —
	// clock, fault policy, codec, stream width — so there is no setter
	// ordering to get wrong.
	netOpts, err := p.netOptions()
	if err != nil {
		env.close()
		return nil, err
	}
	mw, err := par.DialNet(par.NetAddressTable(addrs...), netOpts...)
	if err != nil {
		env.close()
		return nil, fmt.Errorf("sieve: dial net nodes: %w", err)
	}
	env.mw = mw
	if len(p.NetAddrs) > 0 {
		// Borrowed daemons may hold a previous run's placements; start from
		// a clean registry so the generated "PS<n>" names bind. Under a fault
		// policy a daemon may crash or partition during this very setup — the
		// chaos harness fires failures on request watermarks, which can land
		// here — so the reset is retried on fresh connections instead of
		// failing a run the recovery machinery was asked to protect.
		for attempt := 0; ; attempt++ {
			err := env.mw.Reset()
			if err == nil {
				break
			}
			if !p.Faults.Enabled || attempt >= 20 {
				env.close()
				return nil, fmt.Errorf("sieve: reset net nodes: %w", err)
			}
			env.mw.Close()
			clock.Or(p.Clock).Sleep(10 * time.Millisecond)
			if mw, derr := par.DialNet(par.NetAddressTable(addrs...), netOpts...); derr == nil {
				env.mw = mw
			}
		}
	}
	return env, nil
}

// placement spreads workers round-robin over every net node; a pool-backed
// run places over the live eligible set instead, so placements follow joins
// and cordons.
func (e *netEnv) placement() par.Placement {
	if e.pool != nil {
		return e.pool.Placement()
	}
	return par.RoundRobin(0, e.mw.Nodes())
}

func (e *netEnv) close() {
	if e.pool != nil {
		e.pool.Close() // closes the middleware too
	} else if e.mw != nil {
		e.mw.Close()
	}
	for _, n := range e.nodes {
		n.Close()
	}
}

// build wires the modules for one matrix cell (the zero combo wires the
// sequential core: no partition, no concurrency, no distribution).
func build(c Combo, p Params) (*wiring, error) {
	w := &wiring{dom: par.NewDomain()}
	w.class = DefineClass(w.dom)
	if c.Distribution != DistNet {
		// DistNet runs under the real backend; only the simulated cells get
		// a virtual cluster.
		w.cl = cluster.New(sim.NewEngine(), p.Cluster)
	}

	callFilter := aspect.Call("PrimeFilter", "Filter")
	callAny := aspect.Call("PrimeFilter", "*")
	newPF := aspect.New("PrimeFilter")

	seq := c == Combo{}
	var mods []par.Module
	sqrtMax := ISqrt(p.Max)

	switch c.Partition {
	case "":
		// sequential core: no partition

	case PartPipeline:
		ranges := stageRanges(sqrtMax, p.Filters)
		w.pipe = par.NewPipeline(par.PipelineConfig{
			Class:  w.class,
			Method: "Filter",
			Stages: p.Filters,
			StageArgs: func(orig []any, stage int) []any {
				return []any{ranges[stage][0], ranges[stage][1]}
			},
			Split: splitPacks(p.Packs, p.Skew, p.Filters),
			Forward: func(stage int, results []any, args []any) []any {
				if len(results) == 0 {
					return nil
				}
				survivors, _ := results[0].([]int32)
				if len(survivors) == 0 {
					return nil
				}
				return []any{survivors}
			},
			// Over the real middleware the remote nodes' domains cannot run
			// this module's forwarding advice. The default ships the stage
			// topology to the nodes instead (UseTopology below), so hops run
			// peer-to-peer; PipeClientForward forces the caller-side
			// fallback, where every hop doubles back through the driver.
			ForwardRule:   "survivors",
			ClientForward: c.Distribution == DistNet && p.PipeClientForward,
		})
		mods = append(mods, w.pipe)

	case PartFarm, PartDynamicFarm, PartStealingFarm:
		w.farm = par.NewFarm(par.FarmConfig{
			Class:    w.class,
			Method:   "Filter",
			Workers:  p.Filters,
			Split:    splitPacks(p.Packs, p.Skew, p.Filters),
			Dynamic:  c.Partition == PartDynamicFarm,
			Stealing: c.Partition == PartStealingFarm,
			Window:   p.Window,
		})
		mods = append(mods, w.farm)

	default:
		return nil, fmt.Errorf("sieve: unknown partition %q", c.Partition)
	}

	if c.Concurrency == ConcAsync {
		w.conc = par.NewConcurrency(callFilter)
		mods = append(mods, w.conc)
	}

	switch c.Distribution {
	case "", DistNone:
		// local objects, direct calls
	case DistRMI:
		w.dist = par.NewDistribution(w.dom, newPF, callAny, par.NewSimRMI(w.cl), workerPlacement(p))
		mods = append(mods, w.dist)
	case DistMPP:
		w.dist = par.NewDistribution(w.dom, newPF, callAny, par.NewSimMPP(w.cl, "Filter"), workerPlacement(p))
		mods = append(mods, w.dist)
	case DistNet:
		env, err := startNetEnv(p)
		if err != nil {
			return nil, err
		}
		w.net = env
		w.dist = par.NewDistribution(w.dom, newPF, callAny, env.mw, env.placement())
		mods = append(mods, w.dist)
		if w.pipe != nil && !p.PipeClientForward {
			// Arm peer-to-peer forwarding: stage creation will compile and
			// install the pipeline topology on the worker daemons.
			if err := w.pipe.UseTopology(env.mw); err != nil {
				env.close()
				return nil, err
			}
		}
		if env.pool != nil && w.farm != nil && c.Partition == PartStealingFarm {
			// A node joining mid-run widens the farm: Grow builds a replica
			// pinned to the newcomer and deals it a steal deque, so it starts
			// hungry and absorbs packs. Errors (e.g. a join before the farm
			// object exists) are dropped — the member is already in the node
			// table, so placement picks it up either way.
			farm := w.farm
			env.pool.OnJoin(func(node exec.NodeID, addr string) {
				_, _ = farm.Grow(exec.Real(), node)
			})
		}
	default:
		return nil, fmt.Errorf("sieve: unknown distribution %q", c.Distribution)
	}

	if p.PackingDegree > 1 && !seq {
		w.packing = par.NewPacking(w.class, "Filter", p.PackingDegree)
		mods = append(mods, w.packing)
	}

	overhead := p.DispatchOverhead
	if seq {
		overhead = 0 // nothing is woven around the plain core
	}
	meter := par.NewMetering(aspect.Or(callAny, newPF), p.NsPerOp, overhead)
	mods = append(mods, meter)
	w.stack = par.NewStack(w.dom, mods...)
	return w, nil
}

// workerPlacement spreads filters round-robin over the worker nodes
// (everything but node 0, where Main runs); a single-machine cluster keeps
// them all on node 0.
func workerPlacement(p Params) par.Placement {
	if p.Cluster.Machines <= 1 {
		return par.SingleNode(0)
	}
	return par.RoundRobin(1, p.Cluster.Machines-1)
}

func runWoven(v Variant, c Combo, p Params) (Result, error) {
	w, err := build(c, p)
	if err != nil {
		return Result{}, err
	}
	if w.net != nil {
		defer w.net.close()
	}
	res := Result{Variant: v, Filters: p.Filters}
	sqrtMax := ISqrt(p.Max)

	main := func(ctx exec.Context) {
		// --- The paper's core main, verbatim structure -------------------
		// The candidates travel as a range; each pack is built as its call
		// is issued (par.Lazy), so the driver never holds the whole list.
		cands := CandidateOdds(sqrtMax, p.Max)
		pf, err := w.class.New(ctx, int32(2), sqrtMax)
		if err != nil {
			panic(err)
		}
		if _, err := w.class.Call(ctx, pf, "Filter", cands); err != nil {
			panic(err)
		}
		// --- End of core main; join and gather ---------------------------
		if w.packing != nil {
			if err := w.packing.Flush(ctx); err != nil {
				panic(err)
			}
		}
		if err := w.stack.Join(ctx); err != nil {
			panic(err)
		}
		parts, err := gather(ctx, w, pf)
		if err != nil {
			panic(err)
		}
		// The checksum is order-free and folds over the parts; only the
		// kept list is concatenated and sorted.
		for _, part := range parts {
			count, sum := Checksum(part)
			res.PrimeCount += count
			res.PrimeSum += sum
		}
		if p.KeepPrimes {
			res.Primes = slices.Concat(parts...)
			slices.Sort(res.Primes)
		}
	}
	if w.net != nil {
		// Real-TCP run: no simulated cluster, no virtual time — the main
		// activity executes directly under the real backend and Elapsed is
		// wall-clock.
		ctx := exec.Real()
		start := ctx.Now()
		if runErr := runReal(ctx, main); runErr != nil {
			return Result{}, fmt.Errorf("sieve: %s run failed: %w", v, runErr)
		}
		res.Elapsed = ctx.Now() - start
	} else {
		if runErr := w.cl.Run(main); runErr != nil {
			return Result{}, fmt.Errorf("sieve: %s run failed: %w", v, runErr)
		}
		res.Elapsed = w.cl.Elapsed()
	}
	if w.dist != nil {
		res.Comm = w.dist.Middleware().Stats()
	}
	if w.net != nil {
		res.Faults = w.net.mw.FaultStats()
		res.Topo = w.net.mw.TopologyStats()
	}
	if w.conc != nil {
		res.Spawned = w.conc.Spawned()
	}
	if w.farm != nil {
		res.Steals = w.farm.StealStats()
	}
	return res, nil
}

// runReal executes main under the real backend, converting the main body's
// panics (its error convention under cluster.Run, whose engine recovers
// them) into errors.
func runReal(ctx exec.Context, main func(exec.Context)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	main(ctx)
	return nil
}

// gather collects the primes as the parts the collection calls returned,
// unsorted: the seed primes plus the accepted survivors of the terminal
// object(s). The collection calls are woven, so with distribution plugged
// they travel over the middleware like any other call.
func gather(ctx exec.Context, w *wiring, pf any) ([][]int32, error) {
	var parts [][]int32
	take := func(res []any, err error) error {
		if err != nil {
			return err
		}
		for _, r := range res {
			if r != nil {
				parts = append(parts, r.([]int32))
			}
		}
		return nil
	}
	switch {
	case w.pipe != nil:
		// Every stage owns a disjoint seed range; survivors of the last
		// stage passed every seed.
		if err := take(w.pipe.Collect(ctx, "Seeds")); err != nil {
			return nil, err
		}
		stages := w.pipe.Managed()
		last := stages[len(stages)-1]
		res, err := w.class.CallWith(ctx, par.Internal|par.NoAsync, last, "Accepted")
		if err := take(res, err); err != nil {
			return nil, err
		}
	case w.farm != nil:
		// Replicated seeds: take one copy; survivors from every worker.
		workers := w.farm.Managed()
		res, err := w.class.CallWith(ctx, par.Internal|par.NoAsync, workers[0], "Seeds")
		if err := take(res, err); err != nil {
			return nil, err
		}
		if err := take(w.farm.Collect(ctx, "Accepted")); err != nil {
			return nil, err
		}
	default: // sequential
		res, err := w.class.Call(ctx, pf, "Seeds")
		if err := take(res, err); err != nil {
			return nil, err
		}
		res, err = w.class.Call(ctx, pf, "Accepted")
		if err := take(res, err); err != nil {
			return nil, err
		}
	}
	return parts, nil
}
