package sieve

import (
	"net"
	"testing"
	"time"
)

// These tests are the real-TCP half of the conformance harness: the same
// module matrix, with the distribution axis running over par.NetRMI against
// in-process loopback rmi.Node daemons — each with its own fresh domain, the
// process model of a distributed deployment. Results must match both the
// hand-coded sequential oracle and the simulated-RMI cells bit for bit.

func requireLoopback(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	ln.Close()
}

// netParams is matrixParams over two loopback node daemons.
func netParams() Params {
	p := matrixParams()
	p.NetNodes = 2
	return p
}

// TestNetMatrixConformance runs every net cell of the module matrix — each
// partition × concurrency pair over the real middleware — and checks the
// computed primes against the hand-coded sequential oracle.
func TestNetMatrixConformance(t *testing.T) {
	requireLoopback(t)
	p := netParams()
	want, err := HandSequential(p.Max)
	if err != nil {
		t.Fatal(err)
	}
	combos := NetCombos()
	if len(combos) != 6 {
		t.Fatalf("NetCombos() = %d cells, want 6", len(combos))
	}
	for _, c := range combos {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			res, err := RunCombo(c, p)
			if err != nil {
				t.Fatalf("%s: %v", c, err)
			}
			assertPrimesEqual(t, res.Primes, want)
			if res.Comm.Messages == 0 {
				t.Errorf("%s: no middleware traffic counted — calls did not cross the wire", c)
			}
		})
	}
}

// TestNetMatchesSimulatedRMI is the acceptance criterion of the real
// backend: FarmRMI, FarmDRMI and FarmStealing over par.NetRMI (window 2, so
// the self-scheduling farms exercise the pipelined path and the static
// farm's void calls the one-way send window) compute exactly the primes of
// their simulated-RMI twins.
func TestNetMatchesSimulatedRMI(t *testing.T) {
	requireLoopback(t)
	p := netParams()
	p.Window = 2
	for _, cell := range []Combo{
		{PartFarm, ConcAsync, DistRMI},          // FarmRMI
		{PartDynamicFarm, ConcMerged, DistRMI},  // FarmDRMI
		{PartStealingFarm, ConcMerged, DistRMI}, // FarmStealing
	} {
		cell := cell
		t.Run(cell.String(), func(t *testing.T) {
			simRes, err := RunCombo(cell, p)
			if err != nil {
				t.Fatal(err)
			}
			netCell := cell
			netCell.Distribution = DistNet
			netRes, err := RunCombo(netCell, p)
			if err != nil {
				t.Fatal(err)
			}
			assertPrimesEqual(t, netRes.Primes, simRes.Primes)
			if netRes.PrimeCount != simRes.PrimeCount || netRes.PrimeSum != simRes.PrimeSum {
				t.Errorf("checksums diverge: net %d/%d vs sim %d/%d",
					netRes.PrimeCount, netRes.PrimeSum, simRes.PrimeCount, simRes.PrimeSum)
			}
		})
	}
}

// TestNetBinaryStreamsConformance runs the self-scheduling farms over the
// wire-speed configuration — binary codec, three dispatch streams per peer —
// and checks the primes against the oracle and against a run pinned to
// gob/FIFO: the transport upgrade must be observationally invisible.
func TestNetBinaryStreamsConformance(t *testing.T) {
	requireLoopback(t)
	want, err := HandSequential(netParams().Max)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Combo{
		{PartDynamicFarm, ConcMerged, DistNet},
		{PartStealingFarm, ConcMerged, DistNet},
	} {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			base := netParams()
			base.Window = 2
			base.NetCodec = "gob" // pinned: the default speaks binary
			gobRes, err := RunCombo(c, base)
			if err != nil {
				t.Fatal(err)
			}
			fast := base
			fast.NetCodec = "binary"
			fast.NetStreams = 3
			fastRes, err := RunCombo(c, fast)
			if err != nil {
				t.Fatal(err)
			}
			assertPrimesEqual(t, fastRes.Primes, want)
			assertPrimesEqual(t, fastRes.Primes, gobRes.Primes)
		})
	}
}

// TestNetMixedCodecCluster pins that a node needs no codec setting: a driver
// pinned to gob, then a binary one, run on the same default node daemons,
// each answered in the codec its connections' first byte named. Both runs
// must stay oracle-equal.
func TestNetMixedCodecCluster(t *testing.T) {
	requireLoopback(t)
	p := netParams()
	p.NetAddrs = startSieveNodes(t, 2)
	p.NetStreams = 2
	want, err := HandSequential(p.Max)
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range []string{"gob", "binary"} {
		p.NetCodec = codec
		res, err := RunCombo(Combo{PartStealingFarm, ConcMerged, DistNet}, p)
		if err != nil {
			t.Fatalf("%s driver: %v", codec, err)
		}
		assertPrimesEqual(t, res.Primes, want)
		if res.Comm.Messages == 0 {
			t.Errorf("%s driver: no middleware traffic counted — calls did not cross the wire", codec)
		}
	}
}

// TestNetWindowOne pins the synchronous degradation over the real transport:
// window 1 must produce the same primes as the pipelined window.
func TestNetWindowOne(t *testing.T) {
	requireLoopback(t)
	p := netParams()
	p.Window = 1
	want, err := HandSequential(p.Max)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Combo{
		{PartDynamicFarm, ConcMerged, DistNet},
		{PartStealingFarm, ConcMerged, DistNet},
	} {
		res, err := RunCombo(c, p)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		assertPrimesEqual(t, res.Primes, want)
	}
}

// TestNetPipelineSharedNodeDoesNotDeadlock: four stages round-robin on two
// nodes make two hops go the same way (stage 0 → 1 and stage 2 → 3). Sharing
// one connection, those hops shared its send window and its dispatch lane at
// the successor, and with many small packs in flight the two nodes' lanes
// blocked on each other for good. Each hop now has its own connection, so
// every wait is on a stage further down the pipeline. Each solve gets a
// deadline; a hang fails the test instead of the package timeout.
func TestNetPipelineSharedNodeDoesNotDeadlock(t *testing.T) {
	requireLoopback(t)
	p := Params{
		Max:        200_000,
		Packs:      1_000,
		Filters:    4,
		NetNodes:   2,
		NetCodec:   "binary",
		NetStreams: 3,
	}
	wantN, wantS := Checksum(Reference(p.Max))
	c := Combo{Partition: PartPipeline, Concurrency: ConcAsync, Distribution: DistNet}
	for solve := 1; solve <= 10; solve++ {
		type outcome struct {
			res Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := RunCombo(c, p)
			done <- outcome{res, err}
		}()
		select {
		case o := <-done:
			if o.err != nil {
				t.Fatalf("solve %d: %v", solve, o.err)
			}
			if o.res.PrimeCount != wantN || o.res.PrimeSum != wantS {
				t.Fatalf("solve %d: primes (%d, %d), want (%d, %d)", solve, o.res.PrimeCount, o.res.PrimeSum, wantN, wantS)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("solve %d did not finish in 10 s: the pipeline's forward lanes deadlocked", solve)
		}
	}
}
