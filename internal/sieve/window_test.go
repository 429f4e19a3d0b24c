package sieve

import "testing"

// TestWindowedFarmsCloseGapToStaticRMI machine-checks the windowed-dispatch
// acceptance criterion: on balanced packs (no skew) the self-scheduling
// farms historically lost to the static FarmRMI — whose concurrency module
// keeps every pack in flight — by the synchronous round trip they paid per
// pack. With the dispatch window they must come within 10% of FarmRMI, and
// strictly beat their own window=1 (synchronous) protocol.
func TestWindowedFarmsCloseGapToStaticRMI(t *testing.T) {
	p := PaperParams(8)
	p.Max = 1_000_000

	static, err := Run(FarmRMI, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{FarmDRMI, FarmStealing} {
		windowed, err := Run(v, p)
		if err != nil {
			t.Fatal(err)
		}
		ps := p
		ps.Window = 1
		sync, err := Run(v, ps)
		if err != nil {
			t.Fatal(err)
		}
		if windowed.PrimeCount != static.PrimeCount || windowed.PrimeSum != static.PrimeSum {
			t.Errorf("%s: checksum diverges from FarmRMI", v)
		}
		gap := (windowed.Elapsed.Seconds() - static.Elapsed.Seconds()) / static.Elapsed.Seconds()
		if gap > 0.10 {
			t.Errorf("%s windowed = %v, FarmRMI = %v: gap %.1f%% exceeds 10%%",
				v, windowed.Elapsed, static.Elapsed, gap*100)
		}
		if windowed.Elapsed >= sync.Elapsed {
			t.Errorf("%s windowed (%v) did not beat its synchronous window=1 protocol (%v)",
				v, windowed.Elapsed, sync.Elapsed)
		}
	}
}

// TestWindowDeterministicAcrossRuns pins windowed runs' reproducibility at
// the sieve level: identical parameters give identical virtual schedules.
func TestWindowDeterministicAcrossRuns(t *testing.T) {
	p := PaperParams(6)
	p.Max = 200_000
	p.Skew = 4
	for _, v := range []Variant{FarmDRMI, FarmStealing} {
		a, err := Run(v, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(v, p)
		if err != nil {
			t.Fatal(err)
		}
		if a.Elapsed != b.Elapsed || a.Comm != b.Comm || a.Steals != b.Steals {
			t.Errorf("%s: windowed runs diverge: %v/%v", v, a.Elapsed, b.Elapsed)
		}
	}
}

// TestInlineWindowKeepsSchedule pins what lets window 1 share the windowed
// worker loop: without an asynchronous middleware every pack call runs
// inline, so the window never fills and windows 1, 2 and 4 must produce the
// same virtual-time schedule and the same scheduler counters, in both
// self-scheduling partitions, balanced and skewed.
func TestInlineWindowKeepsSchedule(t *testing.T) {
	for _, part := range []PartitionKind{PartStealingFarm, PartDynamicFarm} {
		c := Combo{Partition: part, Concurrency: ConcMerged, Distribution: DistNone}
		for _, skew := range []float64{0, 8} {
			var first Result
			for _, window := range []int{1, 2, 4} {
				res, err := RunCombo(c, Params{Max: 300_000, Packs: 30, Filters: 4, Skew: skew, Window: window})
				if err != nil {
					t.Fatalf("%s skew=%g window=%d: %v", c, skew, window, err)
				}
				if window == 1 {
					first = res
					continue
				}
				if res.Elapsed != first.Elapsed || res.Steals != first.Steals {
					t.Errorf("%s skew=%g: window %d gives %v %+v, window 1 %v %+v",
						c, skew, window, res.Elapsed, res.Steals, first.Elapsed, first.Steals)
				}
			}
		}
	}
}
