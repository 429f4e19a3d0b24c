// Command paperbench regenerates the tables and figures of the paper's
// evaluation (Section 6) on the simulated testbed.
//
// Usage:
//
//	paperbench [-exp table1|fig16|fig17|packing|imbalance|schedule|all]
//	           [-max N] [-packs N] [-runs N] [-filters 1,4,7,10,13,16]
//	           [-skew F] [-window N] [-json FILE]
//
// Every number it prints is virtual time from the simulated cluster's cost
// model, deterministic run to run. Wall-clock measurements of the real
// transport and services live in the separate benchmark module
// (benchmark/run.sh), not here.
//
// The defaults are the paper's parameters: maximum prime 10,000,000, 50
// messages, filter counts 1..16, median of 5 runs. -json appends the
// measured points to FILE as a machine-readable record (merging with any
// record already there), the format the CI bench job diffs against
// BENCH_baseline.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"aspectpar/internal/bench"
	"aspectpar/internal/sieve"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1, fig16, fig17, packing, imbalance, schedule, all")
		max      = flag.Int("max", 10_000_000, "largest candidate number")
		packs    = flag.Int("packs", 50, "number of messages the candidate list splits into")
		runs     = flag.Int("runs", 5, "runs per configuration (median reported)")
		filters  = flag.String("filters", "1,4,7,10,13,16", "comma-separated filter counts")
		skew     = flag.Float64("skew", 8, "pack-size skew factor for the schedule sweep")
		window   = flag.Int("window", 0, "dispatch window of the self-scheduling farms (0 = default, 1 = synchronous)")
		autotune = flag.Bool("autotune", false, "switch on the online tuning controllers (tuned cells record as tuned twins)")
		jsonPath = flag.String("json", "", "append measured points to this JSON record file")
	)
	flag.Parse()

	counts, err := parseCounts(*filters)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(2)
	}
	params := func(f int) sieve.Params {
		p := sieve.PaperParams(f)
		p.Max = int32(*max)
		p.Packs = *packs
		p.Window = *window
		p.Autotune = *autotune
		return p
	}

	var entries []bench.Entry
	record := func(experiment string, series []bench.Series) {
		if *jsonPath == "" {
			return
		}
		entries = append(entries,
			bench.SeriesEntries(experiment, *window, *max, *packs, *autotune, series)...)
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	fmt.Printf("paperbench: simulated testbed = 7 nodes x 4 hardware contexts, GbE; max=%d packs=%d runs=%d window=%d autotune=%v\n\n",
		*max, *packs, *runs, *window, *autotune)

	run("table1", func() error {
		fmt.Println(bench.Table1())
		return nil
	})

	run("fig16", func() error {
		series, err := bench.Fig16(counts, *runs, params)
		if err != nil {
			return err
		}
		record("fig16", series)
		fmt.Println(bench.FormatTable("Figure 16 - Performance of Java versus AspectPar (pipeline, RMI)", series))
		fmt.Println(bench.FormatChart("Figure 16 (chart)", series, 14))
		fmt.Println(bench.OverheadSummary(series))
		fmt.Println()
		return nil
	})

	run("fig17", func() error {
		series, err := bench.Fig17(counts, *runs, params)
		if err != nil {
			return err
		}
		record("fig17", series)
		fmt.Println(bench.FormatTable("Figure 17 - Performance of AspectPar versions (module combinations)", series))
		fmt.Println(bench.FormatChart("Figure 17 (chart)", series, 16))
		return nil
	})

	run("packing", func() error {
		f := counts[len(counts)-1]
		series, err := bench.PackingAblation(f, []int{2, 5, 10}, *runs, params)
		if err != nil {
			return err
		}
		record("packing", series)
		fmt.Println(bench.FormatTable(
			fmt.Sprintf("Ablation B - communication packing on FarmMPP (%d filters)", f), series))
		return nil
	})

	run("schedule", func() error {
		series, err := bench.ScheduleSweep(counts, *skew, *runs, params)
		if err != nil {
			return err
		}
		record("schedule", series)
		fmt.Println(bench.FormatTable(
			fmt.Sprintf("Schedule sweep - farm scheduling disciplines under skew ×%.0f (Figure 17 + stealing column)", *skew), series))
		fmt.Println(bench.FormatChart("Schedule sweep (chart)", series, 14))
		return nil
	})

	run("imbalance", func() error {
		f := counts[len(counts)-1]
		series, err := bench.ImbalanceAblation(f, 8, *runs, params)
		if err != nil {
			return err
		}
		record("imbalance", series)
		fmt.Println(bench.FormatTable(
			fmt.Sprintf("Ablation C - static versus dynamic versus stealing farm under load imbalance (%d filters, RMI)", f), series))
		return nil
	})

	if *jsonPath != "" {
		if err := bench.MergeInto(*jsonPath, entries); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d measured points to %s\n", len(entries), *jsonPath)
	}
}

func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad filter count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no filter counts")
	}
	return out, nil
}
