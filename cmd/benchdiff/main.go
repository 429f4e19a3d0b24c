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
package main

import (
	"flag"
	"fmt"
	"os"

	"aspectpar/internal/bench"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "baseline record")
		currentPath  = flag.String("current", "BENCH_pr.json", "current record")
		threshold    = flag.Float64("threshold", 0.15, "maximum tolerated relative virtual-time growth")
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
}
