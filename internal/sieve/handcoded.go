package sieve

import (
	"fmt"
	"slices"
	"time"

	"aspectpar/internal/cluster"
	"aspectpar/internal/exec"
	"aspectpar/internal/sim"
	"aspectpar/internal/simnet"
)

// runHandCoded is the Figure 16 baseline: the pipeline-RMI sieve written the
// traditional way, with every parallelisation concern hand-coded and tangled
// into the application. It performs exactly the computation and
// communication of the woven PipeRMI variant — same stage ranges, same pack
// split, same asynchronous sends, same per-stage mutual exclusion, same RMI
// cost model — but no weaver stands between caller and callee, so it pays no
// per-joinpoint dispatch overhead.
//
// Note what the paper's methodology removes: this one function mixes
// partitioning (stage ranges, pack split), concurrency (spawns, mutexes,
// completion counting), distribution (placement, link profiles, creation
// protocol, call redirection) and the core sieve, and none of it can be
// unplugged.
func runHandCoded(p Params) (Result, error) {
	cl := cluster.New(sim.NewEngine(), p.Cluster)
	remote := simnet.RMIProfile()
	local := simnet.LoopbackProfile(remote)
	link := func(from, to exec.NodeID) simnet.LinkProfile {
		if from == to {
			return local
		}
		return remote
	}

	res := Result{Variant: HandPipeRMI, Filters: p.Filters}
	sqrtMax := ISqrt(p.Max)
	ranges := stageRanges(sqrtMax, p.Filters)

	runErr := cl.Run(func(ctx exec.Context) {
		// Placement: round-robin over the worker nodes, like the woven run.
		nodes := make([]exec.NodeID, p.Filters)
		for i := range nodes {
			if p.Cluster.Machines <= 1 {
				nodes[i] = 0
			} else {
				nodes[i] = exec.NodeID(1 + i%(p.Cluster.Machines-1))
			}
		}

		// Remote creation: control message out, construct at the node
		// (charging the constructor's trial divisions), acknowledgement
		// back. This mirrors Middleware.ExportNew.
		msgs := func(n int64, bytes int64) { res.Comm.Messages += n; res.Comm.Bytes += bytes }
		filters := make([]*PrimeFilter, p.Filters)
		mutexes := make([]exec.Mutex, p.Filters)
		for i := range filters {
			lk := link(ctx.Node(), nodes[i])
			rctx := ctx.OnNode(nodes[i])
			ctx.Compute(lk.SendCPU(64))
			ctx.Sleep(lk.WireTime(64))
			rctx.Compute(lk.RecvCPU(64))
			f, err := NewPrimeFilter(ranges[i][0], ranges[i][1])
			if err != nil {
				panic(err)
			}
			rctx.Compute(time.Duration(float64(f.TakeOps()) * p.NsPerOp))
			rctx.Compute(lk.SendCPU(64))
			ctx.Sleep(lk.WireTime(64))
			ctx.Compute(lk.RecvCPU(64))
			msgs(2, 128)
			filters[i] = f
			mutexes[i] = ctx.NewMutex()
		}

		wg := ctx.NewWaitGroup()

		// sendPack ships one pack to stage i over RMI, filters it there,
		// forwards the survivors asynchronously, and returns after the
		// void-call acknowledgement — the skeleton of what the
		// distribution + concurrency + partition aspects do for the woven
		// version, here inlined by hand.
		var sendPack func(c exec.Context, stage int, pack []int32)
		sendPack = func(c exec.Context, stage int, pack []int32) {
			lk := link(c.Node(), nodes[stage])
			size := 4 * len(pack)
			c.Compute(lk.SendCPU(size))
			c.Sleep(lk.WireTime(size))
			rctx := c.OnNode(nodes[stage])
			rctx.Compute(lk.RecvCPU(size))
			msgs(1, int64(size))

			mutexes[stage].Lock(rctx)
			survivors := filters[stage].Filter(pack)
			rctx.Compute(time.Duration(float64(filters[stage].TakeOps()) * p.NsPerOp))
			if stage+1 < p.Filters && len(survivors) > 0 {
				wg.Add(1)
				rctx.Spawn("hand-forward", func(fc exec.Context) {
					defer wg.Done()
					sendPack(fc, stage+1, survivors)
				})
			}
			mutexes[stage].Unlock(rctx)

			// Void-call acknowledgement back to the caller.
			rctx.Compute(lk.SendCPU(16))
			c.Sleep(lk.WireTime(16))
			c.Compute(lk.RecvCPU(16))
			msgs(1, 16)
		}

		// Split the candidate list into packs (the same split as the woven
		// partition module, so the two Figure 16 curves do identical work)
		// and send each one asynchronously into the pipeline head.
		list := Candidates(sqrtMax, p.Max)
		for _, part := range splitPacks(p.Packs, p.Skew, p.Filters)([]any{list}) {
			pack := part[0].([]int32)
			wg.Add(1)
			ctx.Spawn("hand-send", func(c exec.Context) {
				defer wg.Done()
				sendPack(c, 0, pack)
			})
			res.Spawned++
		}
		wg.Wait(ctx)

		// Gather: fetch the seed primes of every stage and the survivors
		// of the last one, over the same cost model (request + sized
		// reply), mirroring the woven gather.
		fetch := func(stage int, payload []int32) []int32 {
			lk := link(ctx.Node(), nodes[stage])
			rctx := ctx.OnNode(nodes[stage])
			ctx.Compute(lk.SendCPU(16))
			ctx.Sleep(lk.WireTime(16))
			rctx.Compute(lk.RecvCPU(16))
			size := 4 * len(payload)
			if size < 16 {
				size = 16
			}
			rctx.Compute(lk.SendCPU(size))
			ctx.Sleep(lk.WireTime(size))
			ctx.Compute(lk.RecvCPU(size))
			msgs(2, int64(16+size))
			return payload
		}
		var primes []int32
		for i, f := range filters {
			primes = append(primes, fetch(i, f.Seeds())...)
		}
		primes = append(primes, fetch(p.Filters-1, filters[p.Filters-1].Accepted())...)
		res.PrimeCount, res.PrimeSum = Checksum(primes) // order-free: no sort
	})
	if runErr != nil {
		return Result{}, fmt.Errorf("sieve: hand-coded run failed: %w", runErr)
	}
	res.Elapsed = cl.Elapsed()
	return res, nil
}

// HandSequential is the hand-coded sequential sieve: one PrimeFilter over
// the seed range [2, √max] filtering the odd candidates directly — no
// weaver, no modules, no simulation. It is the conformance oracle the
// module-matrix harness compares every woven combination against (and is
// itself checked against the independent Reference sieve).
func HandSequential(max int32) ([]int32, error) {
	if max < 2 {
		return nil, nil
	}
	sqrtMax := ISqrt(max)
	if sqrtMax < 2 {
		sqrtMax = 2 // tiny max: the seed filter still needs a valid [2,2] range
	}
	f, err := NewPrimeFilter(2, sqrtMax)
	if err != nil {
		return nil, err
	}
	survivors := f.Filter(Candidates(sqrtMax, max))
	primes := append(f.Seeds(), survivors...)
	slices.Sort(primes)
	return primes, nil
}
