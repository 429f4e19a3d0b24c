package sieve

import (
	"testing"

	"aspectpar/internal/par"
)

// TestSelfSchedulingGoldenSchedules pins the self-scheduling farms'
// virtual-time schedules at these exact parameters. The golden values have
// held since the windowed dispatch protocol landed; any drift means the
// dispatch path changed, which the checked-in bench baseline forbids.
func TestSelfSchedulingGoldenSchedules(t *testing.T) {
	golden := []struct {
		v         Variant
		skew      float64
		window    int
		elapsedNs int64
		count     int
		sum       uint64
	}{
		{FarmStealing, 8, 0, 34792344, 25997, 3709507114},
		{FarmStealing, 0, 0, 31833708, 25997, 3709507114},
		{FarmDRMI, 8, 0, 39730439, 25997, 3709507114},
		{FarmDRMI, 0, 0, 31277247, 25997, 3709507114},
		{FarmStealing, 8, 3, 33502118, 25997, 3709507114},
		{FarmStealing, 0, 1, 36740561, 25997, 3709507114},
		{FarmStealing, 8, 1, 37411720, 25997, 3709507114},
		{FarmDRMI, 0, 1, 36676783, 25997, 3709507114},
		{FarmDRMI, 8, 1, 39137327, 25997, 3709507114},
	}
	// The stealing scheduler's counters of the window-1 rows: which packs
	// were stolen and split is the schedule, not just its elapsed time.
	type key struct {
		skew   float64
		window int
	}
	stealGolden := map[key]par.StealStats{
		{0, 1}: {Seeded: 30, Executed: 30, FailedScans: 258},
		{8, 1}: {Seeded: 30, Executed: 39, Steals: 12, Stolen: 13, Splits: 9, FailedScans: 98},
	}
	for _, g := range golden {
		p := Params{Max: 300_000, Packs: 30, Filters: 4, Skew: g.skew, Window: g.window}
		res, err := Run(g.v, p)
		if err != nil {
			t.Fatalf("%s skew=%g window=%d: %v", g.v, g.skew, g.window, err)
		}
		if res.Elapsed.Nanoseconds() != g.elapsedNs {
			t.Errorf("%s skew=%g window=%d: elapsed %d ns, golden %d ns (dispatch path drifted)",
				g.v, g.skew, g.window, res.Elapsed.Nanoseconds(), g.elapsedNs)
		}
		if res.PrimeCount != g.count || res.PrimeSum != g.sum {
			t.Errorf("%s skew=%g window=%d: checksum %d/%d, golden %d/%d",
				g.v, g.skew, g.window, res.PrimeCount, res.PrimeSum, g.count, g.sum)
		}
		if want, ok := stealGolden[key{g.skew, g.window}]; ok && g.v == FarmStealing && res.Steals != want {
			t.Errorf("%s skew=%g window=%d: steal counters %+v, golden %+v",
				g.v, g.skew, g.window, res.Steals, want)
		}
	}
}
