package sieve

import (
	"testing"

	"aspectpar/internal/exec"
	"aspectpar/internal/par"
	"aspectpar/internal/rmi"
)

// These tests are the conformance harness of peer-to-peer pipeline
// forwarding (par.Topology): the same pipeline cells over the real
// middleware, once with the stage topology installed on the nodes (the
// default — hops run node-to-node) and once forced onto the ClientForward
// fallback (every hop doubles back through the driver). The two modes must
// compute byte-equal primes, and the driver's traffic counters must show
// that topology mode actually removed the per-hop doubling.

// TestPipelineTopologyMatchesClientForward pins the two forwarding modes
// byte-equal against each other and against the hand-coded oracle, for both
// concurrency settings of the pipeline cells.
func TestPipelineTopologyMatchesClientForward(t *testing.T) {
	requireLoopback(t)
	p := netParams()
	want, err := HandSequential(p.Max)
	if err != nil {
		t.Fatal(err)
	}
	for _, conc := range []ConcurrencyKind{ConcNone, ConcAsync} {
		c := Combo{Partition: PartPipeline, Concurrency: conc, Distribution: DistNet}
		t.Run(c.String(), func(t *testing.T) {
			topoRes, err := RunCombo(c, p)
			if err != nil {
				t.Fatalf("topology run: %v", err)
			}
			cf := p
			cf.PipeClientForward = true
			cfRes, err := RunCombo(c, cf)
			if err != nil {
				t.Fatalf("client-forward run: %v", err)
			}
			assertPrimesEqual(t, topoRes.Primes, want)
			assertPrimesEqual(t, cfRes.Primes, topoRes.Primes)

			// The hops must actually have run peer-to-peer: over two real
			// TCP nodes with three round-robin stages, every stage boundary
			// crosses processes, so the nodes' forward lanes — not the
			// driver — carried the stage-to-stage traffic.
			if topoRes.Topo.PeerForwards == 0 {
				t.Errorf("topology run forwarded no hops node-side (stats %+v)", topoRes.Topo)
			}
			if topoRes.Topo.Stranded != 0 || topoRes.Topo.Redelivered != 0 {
				t.Errorf("healthy run stranded hops: %+v", topoRes.Topo)
			}
			if topoRes.Topo.Installs == 0 {
				t.Errorf("topology was never installed (stats %+v)", topoRes.Topo)
			}
			if cfRes.Topo.PeerForwards != 0 {
				t.Errorf("client-forward run used the forward lane: %+v", cfRes.Topo)
			}
		})
	}
}

// TestPipelineTopologyNoPerHopDoubling is the traffic-stats acceptance
// criterion: with the topology installed the driver's messages cover only
// placements, the one-way feed of stage 0 and the result collection — each
// inner hop runs node-to-node, unseen by the driver's counters. The
// ClientForward fallback ships every hop out and back through the driver, so
// for a three-stage pipeline its driver traffic must come out well above the
// peer-to-peer run's.
func TestPipelineTopologyNoPerHopDoubling(t *testing.T) {
	requireLoopback(t)
	p := netParams()
	c := Combo{Partition: PartPipeline, Concurrency: ConcNone, Distribution: DistNet}
	topoRes, err := RunCombo(c, p)
	if err != nil {
		t.Fatalf("topology run: %v", err)
	}
	cf := p
	cf.PipeClientForward = true
	cfRes, err := RunCombo(c, cf)
	if err != nil {
		t.Fatalf("client-forward run: %v", err)
	}
	if topoRes.Comm.Messages == 0 {
		t.Fatal("topology run counted no driver traffic at all")
	}
	if cfRes.Comm.Messages < 2*topoRes.Comm.Messages {
		t.Errorf("driver traffic: topology %d messages vs client-forward %d — expected the fallback to at least double (3 stages of doubling back)",
			topoRes.Comm.Messages, cfRes.Comm.Messages)
	}
	// Every hop the fallback shipped through the driver ran node-to-node in
	// topology mode: one forward per non-empty pack per stage boundary.
	if got, min := topoRes.Topo.PeerForwards, int64(p.Packs); got < min {
		t.Errorf("PeerForwards = %d, want at least one per pack (%d)", got, min)
	}
}

// startSieveNodes launches n loopback daemons hosting PrimeFilter, configured
// by opts, for the tests that run several drivers against the same nodes.
func startSieveNodes(t *testing.T, n int, opts ...rmi.Option) []string {
	t.Helper()
	requireLoopback(t)
	addrs := make([]string, n)
	for i := range addrs {
		node := rmi.NewNode(exec.Real(), opts...)
		par.HostClass(node, DefineClass(par.NewDomain()))
		addr, err := node.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		addrs[i] = addr
	}
	return addrs
}

// TestPipelineRunsTwiceOnTheSameNodes: a second driver against daemons that
// already served a pipeline starts its topology versions at 1 again. The
// nodes used to keep the first driver's version across the reset, ignore the
// new install as stale and forward nothing — the run "succeeded" with the
// seed primes only. Both runs must be oracle-equal and forward node-side.
func TestPipelineRunsTwiceOnTheSameNodes(t *testing.T) {
	p := netParams()
	p.NetAddrs = startSieveNodes(t, 2)
	want, err := HandSequential(p.Max)
	if err != nil {
		t.Fatal(err)
	}
	c := Combo{Partition: PartPipeline, Concurrency: ConcAsync, Distribution: DistNet}
	for run := 1; run <= 2; run++ {
		res, err := RunCombo(c, p)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		assertPrimesEqual(t, res.Primes, want)
		if res.Topo.PeerForwards == 0 {
			t.Errorf("run %d forwarded no hops node-side (stats %+v)", run, res.Topo)
		}
	}
}

// TestPipelineOverGobOnlyNodes: a driver pinned to gob installs a
// peer-to-peer pipeline on default nodes, whose forward lanes dial each other
// in binary; every node then serves the driver in gob and its peer in binary
// at once, and the three-stage pipeline completes all the same.
func TestPipelineOverGobOnlyNodes(t *testing.T) {
	p := netParams()
	p.NetAddrs = startSieveNodes(t, 2)
	p.NetCodec = "gob"
	want, err := HandSequential(p.Max)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCombo(Combo{Partition: PartPipeline, Concurrency: ConcAsync, Distribution: DistNet}, p)
	if err != nil {
		t.Fatal(err)
	}
	assertPrimesEqual(t, res.Primes, want)
	if res.Topo.PeerForwards == 0 || res.Topo.Stranded != 0 {
		t.Errorf("gob driver: hops did not run node-to-node: %+v", res.Topo)
	}
}
