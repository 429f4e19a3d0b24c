package sieve

import (
	"testing"
	"time"
)

// matrixParams is the reduced-scale workload the conformance matrix runs:
// small enough that 18 simulated cluster runs stay fast, large enough that
// every pack split, steal and middleware hop actually happens.
func matrixParams() Params {
	return Params{
		Max:        30_000,
		Packs:      12,
		Filters:    3,
		KeepPrimes: true,
		Skew:       3, // heterogeneous packs, so adaptive schedules differ from static
	}
}

// TestModuleMatrixConformance is the systematic harness: every valid
// partition × concurrency × distribution combination (including the
// work-stealing farm) must compute exactly the prime set of the hand-coded
// sequential sieve. No spot checks — the full matrix, one subtest per cell.
func TestModuleMatrixConformance(t *testing.T) {
	p := matrixParams()
	want, err := HandSequential(p.Max)
	if err != nil {
		t.Fatal(err)
	}
	// The oracle itself is checked against the independent Reference sieve.
	if wc, ws := Checksum(want); wc != len(Reference(p.Max)) {
		t.Fatalf("hand-coded sequential oracle disagrees with Reference: %d/%d primes (sum %d)",
			wc, len(Reference(p.Max)), ws)
	}

	combos := AllCombos()
	// The matrix must be complete: 4 partitions — two composing with
	// {none, async} concurrency, two self-scheduling — times 3
	// distributions.
	if len(combos) != 18 {
		t.Fatalf("AllCombos() = %d cells, want 18", len(combos))
	}
	seen := map[Combo]bool{}
	for _, c := range combos {
		if seen[c] {
			t.Fatalf("duplicate combo %s", c)
		}
		seen[c] = true
		if err := c.Validate(); err != nil {
			t.Fatalf("AllCombos produced invalid cell %s: %v", c, err)
		}
	}
	for _, part := range []PartitionKind{PartPipeline, PartFarm, PartDynamicFarm, PartStealingFarm} {
		for _, dist := range []DistributionKind{DistNone, DistRMI, DistMPP} {
			found := false
			for c := range seen {
				if c.Partition == part && c.Distribution == dist {
					found = true
				}
			}
			if !found {
				t.Errorf("matrix misses partition %s × distribution %s", part, dist)
			}
		}
	}

	for _, c := range combos {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			res, err := RunCombo(c, p)
			if err != nil {
				t.Fatalf("%s: %v", c, err)
			}
			assertPrimesEqual(t, res.Primes, want)
			if res.Elapsed <= 0 {
				t.Errorf("%s consumed no virtual time", c)
			}
			if c.Partition == PartStealingFarm && res.Steals.Executed != res.Steals.Seeded+res.Steals.Splits {
				t.Errorf("%s: pack accounting broken: %+v", c, res.Steals)
			}
		})
	}

	// The sequential core (zero combo) closes the loop.
	t.Run("seq", func(t *testing.T) {
		res, err := RunCombo(Combo{}, p)
		if err != nil {
			t.Fatal(err)
		}
		assertPrimesEqual(t, res.Primes, want)
	})

	// Without KeepPrimes no list is built: the checksum folds over the
	// gathered parts. One cell per partition: sequential, static farm,
	// stealing farm and pipeline.
	wantCount, wantSum := Checksum(want)
	unkept := p
	unkept.KeepPrimes = false
	for _, c := range []Combo{{}, {PartFarm, ConcAsync, DistRMI}, {PartStealingFarm, ConcMerged, DistRMI}, {PartPipeline, ConcAsync, DistRMI}} {
		t.Run("checksum-only/"+c.String(), func(t *testing.T) {
			res, err := RunCombo(c, unkept)
			if err != nil {
				t.Fatal(err)
			}
			if res.Primes != nil {
				t.Errorf("%d primes kept with KeepPrimes off", len(res.Primes))
			}
			if res.PrimeCount != wantCount || res.PrimeSum != wantSum {
				t.Errorf("checksum (%d, %d), want (%d, %d)", res.PrimeCount, res.PrimeSum, wantCount, wantSum)
			}
		})
	}
}

// TestInvalidCombosRejected pins the matrix boundaries: self-scheduling
// partitions refuse a separate concurrency module, the others refuse merged.
func TestInvalidCombosRejected(t *testing.T) {
	for _, c := range []Combo{
		{PartDynamicFarm, ConcAsync, DistRMI},
		{PartDynamicFarm, ConcNone, DistNone},
		{PartStealingFarm, ConcAsync, DistRMI},
		{PartStealingFarm, ConcNone, DistMPP},
		{PartFarm, ConcMerged, DistRMI},
		{PartPipeline, ConcMerged, DistNone},
		{"nonsense", ConcNone, DistNone},
		{PartFarm, "typo", DistRMI},
		{PartPipeline, "merged-ish", DistNone},
		{PartFarm, ConcNone, "carrier-pigeon"},
	} {
		if _, err := RunCombo(c, matrixParams()); err == nil {
			t.Errorf("RunCombo(%v) should have been rejected", c)
		}
	}
}

// TestFarmStealingBeatsStaticUnderSkew enforces the scheduler's reason to
// exist: on a skewed-pack workload the stealing farm must finish (in virtual
// time) ahead of the static farm that pins each pack to its pre-assigned
// worker. This is the go-test rendering of the paper's Figure-17 scalability
// wall.
func TestFarmStealingBeatsStaticUnderSkew(t *testing.T) {
	p := PaperParams(7)
	p.Max = 400_000
	p.Packs = 21
	p.Skew = 8
	static, err := Run(FarmRMI, p)
	if err != nil {
		t.Fatal(err)
	}
	stealing, err := Run(FarmStealing, p)
	if err != nil {
		t.Fatal(err)
	}
	if stealing.PrimeCount != static.PrimeCount || stealing.PrimeSum != static.PrimeSum {
		t.Fatalf("stealing result diverges: %d/%d vs %d/%d",
			stealing.PrimeCount, stealing.PrimeSum, static.PrimeCount, static.PrimeSum)
	}
	if stealing.Elapsed >= static.Elapsed {
		t.Errorf("FarmStealing (%v) should beat static FarmRMI (%v) on skewed packs",
			stealing.Elapsed, static.Elapsed)
	}
	if stealing.Steals.Steals == 0 {
		t.Errorf("no steals on a skewed workload: %+v", stealing.Steals)
	}
	t.Logf("skewed packs ×8, 7 filters: static=%v stealing=%v (%.1f%% faster), stats=%+v",
		static.Elapsed, stealing.Elapsed,
		100*(1-stealing.Elapsed.Seconds()/static.Elapsed.Seconds()), stealing.Steals)
}

// TestFarmStealingDeterministic pins virtual-time reproducibility end to
// end: two identical stealing runs give bit-identical elapsed times and
// scheduler counters.
func TestFarmStealingDeterministic(t *testing.T) {
	p := PaperParams(5)
	p.Max = 100_000
	p.Packs = 10
	p.Skew = 4
	var elapsed [2]time.Duration
	var counts [2]int
	for i := range elapsed {
		res, err := Run(FarmStealing, p)
		if err != nil {
			t.Fatal(err)
		}
		elapsed[i] = res.Elapsed
		counts[i] = res.PrimeCount
	}
	if elapsed[0] != elapsed[1] {
		t.Errorf("elapsed differs across identical runs: %v vs %v", elapsed[0], elapsed[1])
	}
	if counts[0] != counts[1] {
		t.Errorf("prime count differs across identical runs: %d vs %d", counts[0], counts[1])
	}
}

func assertPrimesEqual(t *testing.T, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("prime count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("primes diverge at index %d: got %d, want %d", i, got[i], want[i])
		}
	}
}
