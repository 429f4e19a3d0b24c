package main

import (
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"testing"
)

// The smoke test runs every workload and the ladder at 1/50 size, in
// process, with no timing assertion: it keeps the benchmark compiling
// against the product API, its oracles passing, and the names it prints
// equal to the names BENCHMARK.json declares.

var smoke = config{seed: 7, scale: 50}

func noProgress(int64, int64) {}

func loadTestManifest(t *testing.T) manifest {
	t.Helper()
	man, err := loadManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return man
}

func declNames(decls []metricDecl) []string {
	var names []string
	for _, d := range decls {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

func metricNames(res result) []string {
	var names []string
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func TestManifestNamesTheWorkloads(t *testing.T) {
	man := loadTestManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var declared, defined []string
	for _, w := range man.Workloads {
		declared = append(declared, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if !slices.Equal(declared, defined) {
		t.Errorf("BENCHMARK.json declares workloads %v, the benchmark defines %v", declared, defined)
	}
	seen := map[string]bool{}
	for _, n := range slices.Concat(declared, declNames(man.EndToEnd), declNames(man.PerLayer)) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, '_', '.' and '-'", n)
		}
		if seen[n] {
			t.Errorf("name %q is declared twice", n)
		}
		seen[n] = true
	}
	for _, d := range man.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %v", d.Name, d.Bound)
		}
	}
}

func TestWorkloadsReportTheEndToEndMetrics(t *testing.T) {
	want := declNames(loadTestManifest(t).EndToEnd)
	for _, w := range workloads {
		res := runWorkload(w, smoke, 0, noProgress)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, res.Failed, res.Attempted, res.Errors)
		}
		if got := metricNames(res); !slices.Equal(got, want) {
			t.Errorf("%s reports %v, BENCHMARK.json declares %v", w.name, got, want)
		}
		for name, s := range res.Metrics {
			if !(s.Value > 0) {
				t.Errorf("%s: %s = %v, want a positive reading", w.name, name, s.Value)
			}
		}
	}
}

// Every per-layer name a traced run prints is declared, and every declared
// name is measured by at least one workload (the result line reads 0 for a
// layer a workload does not exercise).
func TestTracedRunsReportThePerLayerMetrics(t *testing.T) {
	want := declNames(loadTestManifest(t).PerLayer)
	measured := map[string]bool{}
	for _, w := range workloads {
		res := traceWorkload(w, smoke, filepath.Join(t.TempDir(), "trace.json"), noProgress)
		if !res.Correct {
			t.Errorf("%s traced: %d of %d operations failed: %v", w.name, res.Failed, res.Attempted, res.Errors)
		}
		for _, name := range metricNames(res) {
			measured[name] = true
			if _, ok := slices.BinarySearch(want, name); !ok {
				t.Errorf("%s traced reports %s, which BENCHMARK.json does not declare", w.name, name)
			}
		}
	}
	for _, name := range want {
		if !measured[name] {
			t.Errorf("BENCHMARK.json declares %s, which no traced run measures", name)
		}
	}
}

// A servant that miscounts must show as failed operations: the oracle is
// the replies, not the absence of errors.
func TestCorruptServantRaisesFailures(t *testing.T) {
	w, _ := findWorkload("call-small")
	broken := smoke
	broken.corruptEvery = 7
	res := runWorkload(w, broken, 0, noProgress)
	if res.Correct || res.Failed == 0 {
		t.Errorf("a servant adding one too many every 7th call: %d of %d operations failed, correct=%v",
			res.Failed, res.Attempted, res.Correct)
	}
}
