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
	)
	flag.Parse()

	current, err := bench.ReadRecord(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
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
