package bench

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func sampleSeries(skew float64, ns int64) []Series {
	return []Series{{
		Name:   "FarmRMI (static)",
		Skew:   skew,
		Points: []Point{{Filters: 4, Median: time.Duration(ns)}},
	}}
}

func TestRecordMergeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.json")
	first := SeriesEntries("schedule", 0, 2_000_000, 50, sampleSeries(1, 100))
	if err := MergeInto(path, first); err != nil {
		t.Fatal(err)
	}
	// Merge a second sweep at another skew plus an updated value for the
	// first cell: same-key entries replace, new ones append.
	second := SeriesEntries("schedule", 0, 2_000_000, 50, sampleSeries(8, 300))
	updated := SeriesEntries("schedule", 0, 2_000_000, 50, sampleSeries(1, 200))
	if err := MergeInto(path, append(second, updated...)); err != nil {
		t.Fatal(err)
	}
	rec, err := ReadRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Schema != RecordSchema {
		t.Errorf("schema = %q", rec.Schema)
	}
	if len(rec.Entries) != 2 {
		t.Fatalf("entries = %d, want 2 (merge must dedupe by key): %+v", len(rec.Entries), rec.Entries)
	}
	byKey := map[string]int64{}
	for _, e := range rec.Entries {
		byKey[e.Key()] = e.VirtualNs
	}
	if got := byKey[first[0].Key()]; got != 200 {
		t.Errorf("updated cell = %d, want 200", got)
	}
}

func TestCompareGatesRegressions(t *testing.T) {
	base := &Record{Schema: RecordSchema, Entries: []Entry{
		{Experiment: "schedule", Series: "A", Filters: 4, Max: 1, Packs: 1, VirtualNs: 1000},
		{Experiment: "schedule", Series: "B", Filters: 4, Max: 1, Packs: 1, VirtualNs: 1000},
		{Experiment: "schedule", Series: "C", Filters: 4, Max: 1, Packs: 1, VirtualNs: 1000},
	}}
	cur := &Record{Schema: RecordSchema, Entries: []Entry{
		{Experiment: "schedule", Series: "A", Filters: 4, Max: 1, Packs: 1, VirtualNs: 1100}, // +10%: within threshold
		{Experiment: "schedule", Series: "B", Filters: 4, Max: 1, Packs: 1, VirtualNs: 1200}, // +20%: regression
		// C is missing: coverage loss fails the gate.
		{Experiment: "schedule", Series: "D", Filters: 4, Max: 1, Packs: 1, VirtualNs: 9999}, // new: never fails
	}}
	cmp := Compare(base, cur, 0.15)
	if cmp.OK() {
		t.Fatal("gate passed despite regression and missing cell")
	}
	if len(cmp.Regressions) != 1 || !strings.Contains(cmp.Regressions[0], "|B|") {
		t.Errorf("regressions = %v", cmp.Regressions)
	}
	if len(cmp.Missing) != 1 || !strings.Contains(cmp.Missing[0], "|C|") {
		t.Errorf("missing = %v", cmp.Missing)
	}
	if !strings.Contains(cmp.Report, "REGRESSION") || !strings.Contains(cmp.Report, "(new)") {
		t.Errorf("report lacks annotations:\n%s", cmp.Report)
	}
	// Improvements pass cleanly.
	better := &Record{Schema: RecordSchema, Entries: []Entry{
		{Experiment: "schedule", Series: "A", Filters: 4, Max: 1, Packs: 1, VirtualNs: 500},
		{Experiment: "schedule", Series: "B", Filters: 4, Max: 1, Packs: 1, VirtualNs: 500},
		{Experiment: "schedule", Series: "C", Filters: 4, Max: 1, Packs: 1, VirtualNs: 500},
	}}
	if cmp := Compare(base, better, 0.15); !cmp.OK() {
		t.Errorf("improvement failed the gate: %+v", cmp)
	}
}
