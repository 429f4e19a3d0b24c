// Command benchdiff gates virtual-time benchmark regressions: it compares a
// current paperbench JSON record against a checked-in baseline and fails
// when any measured cell slowed down by more than the threshold, or when a
// baseline cell is no longer measured. Virtual time is deterministic, so
// the gate needs no statistical slack — the threshold only absorbs
// intentional cost-model retuning, which should ship with a refreshed
// baseline.
//
// Usage:
//
//	benchdiff -baseline BENCH_baseline.json -current BENCH_pr.json [-threshold 0.15]
//	         [-tuned] [-tuned-threshold 0.05] [-tuned-wins 3]
//	benchdiff -throughput -current BENCH_pr.json
//	         [-throughput-baseline BENCH_throughput_baseline.json]
//	         [-throughput-threshold 0.25] [-speedup 1.5]
//
// With -throughput it instead gates the wall-clock net-throughput cells
// (paperbench -net-throughput): each cell must stay within the threshold of
// the checked-in baseline — recorded conservatively, since wall-clock rates
// vary by machine — and the wire-speed transport (binary codec, multiplexed
// streams) must beat the pinned gob/FIFO cell by at least -speedup within the
// same run, the machine-independent assertion. The default ratio is what a
// 2-core box holds with room (it reads 2.4–3.5x there): a window's frames
// share their writes, so the syscalls both cells used to pay alike no longer
// hide the codecs' difference.
//
// With -tuned it additionally pairs every tuned cell of the current record
// with its fixed-knob twin and fails when the online tuning controllers
// regressed any cell beyond -tuned-threshold, when a tuned cell has no twin,
// or when fewer than -tuned-wins cells beat the fixed configuration
// outright — the tuned-vs-fixed gate of the autotuning layer.
package main

import (
	"flag"
	"fmt"
	"os"

	"aspectpar/internal/bench"
)

func main() {
	var (
		baselinePath   = flag.String("baseline", "BENCH_baseline.json", "baseline record")
		currentPath    = flag.String("current", "BENCH_pr.json", "current record")
		threshold      = flag.Float64("threshold", 0.15, "maximum tolerated relative virtual-time growth")
		tuned          = flag.Bool("tuned", false, "also gate tuned cells against their fixed-knob twins")
		tunedThreshold = flag.Float64("tuned-threshold", 0.05, "maximum tolerated tuned-over-fixed virtual-time growth")
		tunedWins      = flag.Int("tuned-wins", 3, "minimum tuned cells that must beat their fixed twin by >1%")

		throughput     = flag.Bool("throughput", false, "gate wall-clock net-throughput cells instead of virtual-time cells")
		tpBaselinePath = flag.String("throughput-baseline", "BENCH_throughput_baseline.json", "throughput baseline record")
		tpThreshold    = flag.Float64("throughput-threshold", 0.25, "maximum tolerated relative calls/sec drop")
		tpSpeedup      = flag.Float64("speedup", 1.5, "minimum binary-streams over gob-fifo calls/sec ratio in the current record")
	)
	flag.Parse()

	current, err := bench.ReadRecord(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	if *throughput {
		tpBaseline, err := bench.ReadRecord(*tpBaselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		tc := bench.ThroughputCompare(tpBaseline, current, *tpThreshold, "binary-streams", "gob-fifo")
		fmt.Print(tc.Report)
		if !tc.OK(*tpSpeedup) {
			fmt.Fprintf(os.Stderr, "\nbenchdiff: THROUGHPUT GATE FAIL — %d regression(s), %d missing, speedup %.2fx (need %.2fx)\n",
				len(tc.Regressions), len(tc.Missing), tc.Speedup, *tpSpeedup)
			for _, r := range tc.Regressions {
				fmt.Fprintln(os.Stderr, "  regression:", r)
			}
			for _, m := range tc.Missing {
				fmt.Fprintln(os.Stderr, "  missing:", m)
			}
			os.Exit(1)
		}
		fmt.Printf("\nbenchdiff: throughput gate OK — within %.0f%% of baseline, %.2fx speedup (need %.2fx)\n",
			*tpThreshold*100, tc.Speedup, *tpSpeedup)
		return
	}

	baseline, err := bench.ReadRecord(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cmp := bench.Compare(baseline, current, *threshold)
	fmt.Print(cmp.Report)
	if !cmp.OK() {
		fmt.Fprintf(os.Stderr, "\nbenchdiff: FAIL — %d regression(s), %d missing cell(s)\n",
			len(cmp.Regressions), len(cmp.Missing))
		for _, r := range cmp.Regressions {
			fmt.Fprintln(os.Stderr, "  regression:", r)
		}
		for _, m := range cmp.Missing {
			fmt.Fprintln(os.Stderr, "  missing:", m)
		}
		os.Exit(1)
	}
	fmt.Printf("\nbenchdiff: OK — %d cells within %.0f%% of baseline\n", len(baseline.Entries), *threshold*100)

	if *tuned {
		tc := bench.TunedCompare(current, *tunedThreshold, 0.01)
		fmt.Println()
		fmt.Print(tc.Report)
		if !tc.OK(*tunedWins) {
			fmt.Fprintf(os.Stderr, "\nbenchdiff: TUNED GATE FAIL — %d regression(s), %d unpaired, %d/%d wins\n",
				len(tc.Regressions), len(tc.Unpaired), tc.Wins, *tunedWins)
			for _, r := range tc.Regressions {
				fmt.Fprintln(os.Stderr, "  tuned regression:", r)
			}
			for _, u := range tc.Unpaired {
				fmt.Fprintln(os.Stderr, "  unpaired tuned cell:", u)
			}
			os.Exit(1)
		}
		fmt.Printf("\nbenchdiff: tuned gate OK — %d pairs within %.0f%% of fixed, %d strict win(s)\n",
			tc.Pairs, *tunedThreshold*100, tc.Wins)
	}
}
