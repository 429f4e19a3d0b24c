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

// TestMiddlewareGoldenTraffic pins, per protocol path of the simulated
// middlewares, a run's elapsed virtual time and its traffic counters: every
// message and byte the cost model charges. The rows cover RMI's inline
// synchronous call (PipeRMI, FarmRMI), its windowed call (FarmDRMI), MPP's
// one-way sends beside its request/reply calls (FarmMPP, the MPP pipeline)
// and MPP one-way sends issued through the windowed dispatch of a
// self-scheduling farm.
func TestMiddlewareGoldenTraffic(t *testing.T) {
	golden := []struct {
		combo     Combo
		elapsedNs int64
		messages  int64
		bytes     int64
	}{
		{Combo{PartPipeline, ConcAsync, DistRMI}, 46983394, 258, 1069912},
		{Combo{PartFarm, ConcAsync, DistRMI}, 27911583, 78, 703884},
		{Combo{PartDynamicFarm, ConcMerged, DistRMI}, 31277247, 78, 806988},
		{Combo{PartFarm, ConcAsync, DistMPP}, 20185615, 48, 703404},
		{Combo{PartPipeline, ConcAsync, DistMPP}, 38298521, 138, 1067992},
		{Combo{PartDynamicFarm, ConcMerged, DistMPP}, 20185615, 48, 703404},
	}
	for _, g := range golden {
		res, err := RunCombo(g.combo, Params{Max: 300_000, Packs: 30, Filters: 4})
		if err != nil {
			t.Fatalf("%s: %v", g.combo, err)
		}
		if got := res.Elapsed.Nanoseconds(); got != g.elapsedNs {
			t.Errorf("%s: elapsed %d ns, golden %d ns", g.combo, got, g.elapsedNs)
		}
		if res.Comm.Messages != g.messages || res.Comm.Bytes != g.bytes {
			t.Errorf("%s: traffic %d messages / %d bytes, golden %d / %d",
				g.combo, res.Comm.Messages, res.Comm.Bytes, g.messages, g.bytes)
		}
		if res.PrimeCount != 25997 || res.PrimeSum != 3709507114 {
			t.Errorf("%s: checksum %d/%d, golden 25997/3709507114", g.combo, res.PrimeCount, res.PrimeSum)
		}
	}
}
