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
	Max        int     `json:"max"`
	Packs      int     `json:"packs"`
	VirtualNs  int64   `json:"virtual_ns"`
}

// Key identifies the configuration cell; baseline and current entries are
// matched on it.
func (e Entry) Key() string {
	return fmt.Sprintf("%s|%s|f=%d|skew=%g|win=%d|max=%d|packs=%d",
		e.Experiment, e.Series, e.Filters, e.Skew, e.Window, e.Max, e.Packs)
}

// Record is the machine-readable output of one or more paperbench
// invocations.
type Record struct {
	Schema  string  `json:"schema"`
	Entries []Entry `json:"entries"`
}

// SeriesEntries flattens measured series into entries; each series carries
// its own skew (mixed balanced/skewed experiments stay distinguishable).
func SeriesEntries(experiment string, window, max, packs int, series []Series) []Entry {
	var out []Entry
	for _, s := range series {
		for _, p := range s.Points {
			out = append(out, Entry{
				Experiment: experiment,
				Series:     s.Name,
				Filters:    p.Filters,
				Skew:       s.Skew,
				Window:     window,
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
	fmt.Fprintf(&b, "%-72s %14s %14s %8s\n", "cell", "baseline", "current", "delta")
	for _, base := range baseline.Entries {
		key := base.Key()
		now, ok := cur[key]
		if !ok {
			c.Missing = append(c.Missing, key)
			fmt.Fprintf(&b, "%-72s %14d %14s %8s\n", key, base.VirtualNs, "MISSING", "-")
			continue
		}
		delta := float64(now.VirtualNs-base.VirtualNs) / float64(base.VirtualNs)
		flag := ""
		if delta > threshold {
			c.Regressions = append(c.Regressions, fmt.Sprintf("%s: %dns -> %dns (%+.1f%% > %.0f%%)",
				key, base.VirtualNs, now.VirtualNs, delta*100, threshold*100))
			flag = "  REGRESSION"
		}
		fmt.Fprintf(&b, "%-72s %14d %14d %+7.1f%%%s\n", key, base.VirtualNs, now.VirtualNs, delta*100, flag)
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
