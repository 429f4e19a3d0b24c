package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// This file is the machine-readable side of the harness: paperbench -json
// serialises every measured point as a Record, CI uploads it as an artifact,
// and Compare gates pull requests on virtual-time regressions against a
// checked-in baseline. Virtual time is deterministic, so any drift beyond
// the threshold is a real change in modelled behaviour, not noise.

// RecordSchema versions the JSON layout.
const RecordSchema = "aspectpar-bench/v1"

// Entry is one measured point: a (experiment, series, configuration) cell
// and its median virtual execution time.
type Entry struct {
	Experiment string  `json:"experiment"`
	Series     string  `json:"series"`
	Filters    int     `json:"filters"`
	Skew       float64 `json:"skew,omitempty"`
	Window     int     `json:"window,omitempty"`
	// Tuned marks cells measured with the online tuning controllers on
	// (sieve.Params.Autotune); every tuned cell has an untuned twin under
	// the otherwise-identical key, and TunedCompare reports the deltas.
	Tuned     bool  `json:"tuned,omitempty"`
	Max       int   `json:"max"`
	Packs     int   `json:"packs"`
	VirtualNs int64 `json:"virtual_ns"`

	// Wall-clock cells (experiments "net-throughput" and "stream-throughput")
	// leave VirtualNs zero and carry measured rates instead: higher is
	// better, so ThroughputCompare gates them, not Compare. Codec and Streams
	// pin the transport configuration into the key.
	Codec       string  `json:"codec,omitempty"`
	Streams     int     `json:"streams,omitempty"`
	CallsPerSec float64 `json:"calls_per_sec,omitempty"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
}

// Key identifies the configuration cell; baseline and current entries are
// matched on it.
func (e Entry) Key() string {
	key := fmt.Sprintf("%s|%s|f=%d|skew=%g|win=%d|max=%d|packs=%d",
		e.Experiment, e.Series, e.Filters, e.Skew, e.Window, e.Max, e.Packs)
	if e.Tuned {
		key += "|tuned"
	}
	if e.Codec != "" {
		key += "|codec=" + e.Codec
	}
	if e.Streams > 1 {
		key += fmt.Sprintf("|streams=%d", e.Streams)
	}
	return key
}

// fixedTwinKey is the key of the untuned cell a tuned entry compares
// against.
func (e Entry) fixedTwinKey() string {
	f := e
	f.Tuned = false
	return f.Key()
}

// Record is the machine-readable output of one or more paperbench
// invocations.
type Record struct {
	Schema  string  `json:"schema"`
	Entries []Entry `json:"entries"`
}

// SeriesEntries flattens measured series into entries; each series carries
// its own skew (mixed balanced/skewed experiments stay distinguishable).
func SeriesEntries(experiment string, window, max, packs int, tuned bool, series []Series) []Entry {
	var out []Entry
	for _, s := range series {
		for _, p := range s.Points {
			out = append(out, Entry{
				Experiment: experiment,
				Series:     s.Name,
				Filters:    p.Filters,
				Skew:       s.Skew,
				Window:     window,
				Tuned:      tuned,
				Max:        max,
				Packs:      packs,
				VirtualNs:  p.Median.Nanoseconds(),
			})
		}
	}
	return out
}

// ReadRecord loads a record from path.
func ReadRecord(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: read record: %w", err)
	}
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parse record %s: %w", path, err)
	}
	if r.Schema != RecordSchema {
		return nil, fmt.Errorf("bench: record %s has schema %q, want %q", path, r.Schema, RecordSchema)
	}
	return &r, nil
}

// MergeInto merges entries into the record at path (creating it if absent):
// same-key entries are replaced, new ones appended, and the result is
// written back sorted by key so baselines diff cleanly.
func MergeInto(path string, entries []Entry) error {
	rec := &Record{Schema: RecordSchema}
	if _, err := os.Stat(path); err == nil {
		loaded, err := ReadRecord(path)
		if err != nil {
			return err
		}
		rec = loaded
	}
	byKey := make(map[string]int, len(rec.Entries))
	for i, e := range rec.Entries {
		byKey[e.Key()] = i
	}
	for _, e := range entries {
		if i, ok := byKey[e.Key()]; ok {
			rec.Entries[i] = e
			continue
		}
		byKey[e.Key()] = len(rec.Entries)
		rec.Entries = append(rec.Entries, e)
	}
	sort.Slice(rec.Entries, func(i, j int) bool { return rec.Entries[i].Key() < rec.Entries[j].Key() })
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Shared report formatting of the two gates: one row per compared cell,
// one string per flagged regression. Keeping them in one place stops the
// baseline and tuned-vs-fixed tables drifting apart.
func reportHeader(b *strings.Builder, label string) {
	fmt.Fprintf(b, "%-72s %14s %14s %8s\n", label, "baseline", "current", "delta")
}

func reportRow(b *strings.Builder, key string, base, cur int64, delta float64, flag string) {
	fmt.Fprintf(b, "%-72s %14d %14d %+7.1f%%%s\n", key, base, cur, delta*100, flag)
}

func reportMissing(b *strings.Builder, key, label string, known int64) {
	fmt.Fprintf(b, "%-72s %14d %14s %8s\n", key, known, label, "-")
}

func regressionString(key string, base, cur int64, delta, threshold float64) string {
	return fmt.Sprintf("%s: %dns -> %dns (%+.1f%% > %.0f%%)", key, base, cur, delta*100, threshold*100)
}

// TunedComparison is the outcome of gating the tuning controllers against
// the fixed-knob defaults within one record.
type TunedComparison struct {
	// Pairs counts tuned cells that had a fixed twin; Wins those strictly
	// faster than their twin (beyond winMargin).
	Pairs int
	Wins  int
	// Regressions are tuned cells slower than their fixed twin beyond the
	// threshold; Unpaired are tuned cells with no fixed twin to compare to.
	Regressions []string
	Unpaired    []string
	// Report is the human-readable tuned-vs-fixed table.
	Report string
}

// OK reports whether the tuned gate passes: every tuned cell within
// threshold of its fixed twin, none unpaired, and at least minWins strict
// wins.
func (c *TunedComparison) OK(minWins int) bool {
	return len(c.Regressions) == 0 && len(c.Unpaired) == 0 && c.Wins >= minWins
}

// TunedCompare pairs every tuned cell of a record with its fixed-knob twin
// and reports the deltas: the online controllers must stay within threshold
// of the hand-tuned fixed configuration everywhere (they may only ever be
// marginally worse) and are expected to beat it outright where adaptation
// has room — the skewed-pack and fringe-bound cells. winMargin guards the
// win count against hairline differences.
func TunedCompare(rec *Record, threshold, winMargin float64) *TunedComparison {
	byKey := make(map[string]Entry, len(rec.Entries))
	for _, e := range rec.Entries {
		byKey[e.Key()] = e
	}
	c := &TunedComparison{}
	var b strings.Builder
	reportHeader(&b, "tuned cell (baseline = fixed twin)")
	for _, e := range rec.Entries {
		if !e.Tuned {
			continue
		}
		fixed, ok := byKey[e.fixedTwinKey()]
		if !ok {
			c.Unpaired = append(c.Unpaired, e.Key())
			reportMissing(&b, e.Key(), "NO TWIN", e.VirtualNs)
			continue
		}
		c.Pairs++
		delta := float64(e.VirtualNs-fixed.VirtualNs) / float64(fixed.VirtualNs)
		flag := ""
		switch {
		case delta > threshold:
			c.Regressions = append(c.Regressions, regressionString(e.Key(), fixed.VirtualNs, e.VirtualNs, delta, threshold))
			flag = "  REGRESSION"
		case delta < -winMargin:
			c.Wins++
			flag = "  WIN"
		}
		reportRow(&b, e.Key(), fixed.VirtualNs, e.VirtualNs, delta, flag)
	}
	c.Report = b.String()
	return c
}

// Comparison is the outcome of gating current against baseline.
type Comparison struct {
	// Regressions are cells whose virtual time grew beyond the threshold.
	Regressions []string
	// Missing are baseline cells the current record no longer measures
	// (coverage loss counts as failure).
	Missing []string
	// Report is the human-readable table of every compared cell.
	Report string
}

// OK reports whether the gate passes.
func (c *Comparison) OK() bool { return len(c.Regressions) == 0 && len(c.Missing) == 0 }

// ThroughputComparison is the outcome of gating wall-clock transport cells:
// cells are matched by key and flagged when the measured rate DROPPED beyond
// the threshold (higher is better, the mirror of Compare), plus the
// intra-record speedup of the wire-speed configuration over the baseline
// transport.
type ThroughputComparison struct {
	Regressions []string
	Missing     []string
	// Speedup is the minimum calls/sec ratio of the fast series over the
	// base series across paired workload shapes in the current record; 0
	// when no pair exists.
	Speedup float64
	Report  string
}

// OK reports whether the throughput gate passes: no cell slowed beyond the
// threshold, no baseline cell unmeasured, and the fast transport at least
// minSpeedup times the baseline transport.
func (c *ThroughputComparison) OK(minSpeedup float64) bool {
	return len(c.Regressions) == 0 && len(c.Missing) == 0 && c.Speedup >= minSpeedup
}

// ThroughputCompare gates current wall-clock cells — the net-throughput
// transport cells and the stream-throughput service cell — against a
// checked-in baseline (recorded conservatively — CI machines vary; the
// threshold absorbs that, the baseline absorbs the rest) and computes the
// current record's own fast-over-base transport speedup, the
// machine-independent half of the gate.
func ThroughputCompare(baseline, current *Record, threshold float64, fastSeries, baseSeries string) *ThroughputComparison {
	cur := make(map[string]Entry, len(current.Entries))
	for _, e := range current.Entries {
		cur[e.Key()] = e
	}
	c := &ThroughputComparison{}
	var b strings.Builder
	fmt.Fprintf(&b, "%-72s %14s %14s %8s\n", "throughput cell (calls/sec)", "baseline", "current", "delta")
	for _, base := range baseline.Entries {
		if base.Experiment != "net-throughput" && base.Experiment != "stream-throughput" {
			continue
		}
		key := base.Key()
		now, ok := cur[key]
		if !ok {
			c.Missing = append(c.Missing, key)
			fmt.Fprintf(&b, "%-72s %14.0f %14s %8s\n", key, base.CallsPerSec, "MISSING", "-")
			continue
		}
		delta := (now.CallsPerSec - base.CallsPerSec) / base.CallsPerSec
		flag := ""
		if delta < -threshold {
			c.Regressions = append(c.Regressions, fmt.Sprintf("%s: %.0f -> %.0f calls/sec (%+.1f%% < -%.0f%%)",
				key, base.CallsPerSec, now.CallsPerSec, delta*100, threshold*100))
			flag = "  REGRESSION"
		}
		fmt.Fprintf(&b, "%-72s %14.0f %14.0f %+7.1f%%%s\n", key, base.CallsPerSec, now.CallsPerSec, delta*100, flag)
	}
	// Pair fast and base series on identical workload shape (window,
	// payload, calls) and take the worst ratio: every shape must hold the
	// speedup, not just the friendliest one.
	type shape struct{ window, max, packs int }
	fast := make(map[shape]float64)
	slow := make(map[shape]float64)
	for _, e := range current.Entries {
		if e.Experiment != "net-throughput" {
			continue
		}
		s := shape{e.Window, e.Max, e.Packs}
		switch e.Series {
		case fastSeries:
			fast[s] = e.CallsPerSec
		case baseSeries:
			slow[s] = e.CallsPerSec
		}
	}
	for s, f := range fast {
		if base, ok := slow[s]; ok && base > 0 {
			ratio := f / base
			if c.Speedup == 0 || ratio < c.Speedup {
				c.Speedup = ratio
			}
		}
	}
	if c.Speedup > 0 {
		fmt.Fprintf(&b, "\n%s over %s: %.2fx\n", fastSeries, baseSeries, c.Speedup)
	}
	c.Report = b.String()
	return c
}

// Compare matches current entries against the baseline by configuration key
// and flags any cell whose virtual time exceeds baseline × (1 + threshold).
// Improvements and new cells never fail the gate.
func Compare(baseline, current *Record, threshold float64) *Comparison {
	cur := make(map[string]Entry, len(current.Entries))
	for _, e := range current.Entries {
		cur[e.Key()] = e
	}
	c := &Comparison{}
	var b strings.Builder
	reportHeader(&b, "cell")
	for _, base := range baseline.Entries {
		key := base.Key()
		now, ok := cur[key]
		if !ok {
			c.Missing = append(c.Missing, key)
			reportMissing(&b, key, "MISSING", base.VirtualNs)
			continue
		}
		delta := float64(now.VirtualNs-base.VirtualNs) / float64(base.VirtualNs)
		flag := ""
		if delta > threshold {
			c.Regressions = append(c.Regressions, regressionString(key, base.VirtualNs, now.VirtualNs, delta, threshold))
			flag = "  REGRESSION"
		}
		reportRow(&b, key, base.VirtualNs, now.VirtualNs, delta, flag)
	}
	base := make(map[string]bool, len(baseline.Entries))
	for _, e := range baseline.Entries {
		base[e.Key()] = true
	}
	for _, e := range current.Entries {
		if !base[e.Key()] {
			fmt.Fprintf(&b, "%-72s %14s %14d %8s\n", e.Key(), "(new)", e.VirtualNs, "-")
		}
	}
	c.Report = b.String()
	return c
}
