// Command sieve runs the prime-sieve case study under any module
// combination — on the simulated testbed by default, or over the real-TCP
// middleware against running rminode worker daemons with -net.
//
// Usage:
//
//	sieve [-variant Seq|FarmThreads|PipeRMI|FarmRMI|FarmDRMI|FarmMPP|FarmStealing|HandPipeRMI]
//	      [-filters N] [-max N] [-packs N] [-skew F] [-window N] [-verify]
//	      [-net addr1,addr2,... | -pool registryaddr] [-codec gob|binary] [-streams N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"aspectpar/internal/par"
	"aspectpar/internal/sieve"
)

func main() {
	var (
		variant = flag.String("variant", "FarmRMI", "module combination to run")
		filters = flag.Int("filters", 7, "number of pipeline elements / farm workers")
		max     = flag.Int("max", 10_000_000, "largest candidate number")
		packs   = flag.Int("packs", 50, "number of messages")
		skew    = flag.Float64("skew", 0, "make every filters-th pack this many times larger (load imbalance)")
		window  = flag.Int("window", 0, "dispatch window of the self-scheduling farms (0 = default, 1 = synchronous)")
		faults  = flag.Bool("faults", false, "with -net: enable fault tolerance — journaled calls, reconnect/replay across node crashes, placement failover (kill an rminode mid-run and watch the farm finish)")
		netList = flag.String("net", "", "comma-separated rminode addresses: run the variant's cell over the real TCP middleware instead of the simulated testbed")
		pool    = flag.String("pool", "", "elastic-pool registry address (see cmd/poolctl): like -net, but the membership is discovered live — nodes started with rminode -registry join mid-run, dead ones are cordoned and drained")
		codec   = flag.String("codec", "", "with -net: wire codec of the driver's node connections (gob or binary; empty = binary); a node answers each connection in the codec it opened with")
		streams = flag.Int("streams", 0, "with -net: multiplexed request streams per peer connection (<2 = single pipelined lane)")
		verify  = flag.Bool("verify", false, "cross-check primes against a sequential sieve of Eratosthenes")
	)
	flag.Parse()

	p := sieve.PaperParams(*filters)
	p.Max = int32(*max)
	p.Packs = *packs
	p.Skew = *skew
	p.Window = *window

	start := time.Now()
	var res sieve.Result
	var err error
	overWire := *netList != "" || *pool != ""
	if *netList != "" && *pool != "" {
		fmt.Fprintln(os.Stderr, "sieve: -net and -pool are mutually exclusive (static table vs. live registry)")
		os.Exit(2)
	}
	if *faults && !overWire {
		fmt.Fprintln(os.Stderr, "sieve: -faults only applies to -net runs (the simulated middlewares model no transport failures)")
		os.Exit(2)
	}
	if (*codec != "" || *streams > 1) && !overWire {
		fmt.Fprintln(os.Stderr, "sieve: -codec and -streams only apply to -net runs (the simulated middlewares have no wire format)")
		os.Exit(2)
	}
	if overWire {
		c, ok := sieve.ComboOf(sieve.Variant(*variant))
		if !ok || c.Distribution == sieve.DistNone {
			fmt.Fprintf(os.Stderr, "sieve: variant %s has no distribution module to run over the wire\n", *variant)
			os.Exit(2)
		}
		c.Distribution = sieve.DistNet
		if *faults {
			p.Faults = par.FaultPolicy{Enabled: true}
		}
		p.NetCodec = *codec
		p.NetStreams = *streams
		if *pool != "" {
			p.PoolAddr = *pool
		} else {
			for _, a := range strings.Split(*netList, ",") {
				if a = strings.TrimSpace(a); a != "" {
					p.NetAddrs = append(p.NetAddrs, a)
				}
			}
			if len(p.NetAddrs) == 0 {
				fmt.Fprintln(os.Stderr, "sieve: -net given but no addresses parsed")
				os.Exit(2)
			}
		}
		res, err = sieve.RunCombo(c, p)
	} else {
		res, err = sieve.Run(sieve.Variant(*variant), p)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sieve:", err)
		os.Exit(1)
	}
	host := time.Since(start)

	pa, co, di := sieve.Table1Row(sieve.Variant(*variant))
	if *pool != "" {
		di = fmt.Sprintf("netrmi (elastic pool at %s)", *pool)
	} else if overWire {
		di = fmt.Sprintf("netrmi (%d nodes)", len(p.NetAddrs))
	}
	fmt.Printf("variant      : %s (partition=%s, concurrency=%s, distribution=%s)\n", res.Variant, pa, co, di)
	fmt.Printf("filters      : %d\n", res.Filters)
	fmt.Printf("max prime    : %d in %d packs\n", *max, *packs)
	fmt.Printf("primes found : %d (sum %d)\n", res.PrimeCount, res.PrimeSum)
	if overWire {
		fmt.Printf("wire time    : %v   (real TCP, wall clock)\n", res.Elapsed.Round(time.Millisecond))
	} else {
		fmt.Printf("virtual time : %v   (simulated 7-node testbed)\n", res.Elapsed.Round(time.Millisecond))
	}
	fmt.Printf("host time    : %v\n", host.Round(time.Millisecond))
	if res.Comm.Messages > 0 {
		fmt.Printf("middleware   : %d messages, %.1f MB\n", res.Comm.Messages, float64(res.Comm.Bytes)/1e6)
	}
	if res.Spawned > 0 {
		fmt.Printf("activities   : %d asynchronous calls\n", res.Spawned)
	}
	if res.Steals.Executed > 0 {
		fmt.Printf("scheduler    : %d packs executed (%d seeded + %d splits), %d steals moved %d packs\n",
			res.Steals.Executed, res.Steals.Seeded, res.Steals.Splits, res.Steals.Steals, res.Steals.Stolen)
	}
	if *faults {
		f := res.Faults
		fmt.Printf("fault layer  : %d reconnects, %d replays, %d failovers, %d dropped peers\n",
			f.Reconnects, f.Replays, f.Failovers, f.DroppedPeers)
	}

	if *verify {
		wantN, wantS := sieve.Checksum(sieve.Reference(p.Max))
		if res.PrimeCount != wantN || res.PrimeSum != wantS {
			fmt.Fprintf(os.Stderr, "sieve: VERIFICATION FAILED: got (%d, %d), want (%d, %d)\n",
				res.PrimeCount, res.PrimeSum, wantN, wantS)
			os.Exit(1)
		}
		fmt.Println("verification : OK (matches sieve of Eratosthenes)")
	}
}
