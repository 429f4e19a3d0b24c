package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sample is one reported metric. Value is a median unless the metric's name
// says otherwise (a p99, a count, a ratio); Q1, Q3 and N describe the
// samples it was taken from.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

// quantile reads the q-quantile off an ascending slice, interpolating
// between neighbours.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// median summarises vals × scale as median and quartiles.
func median(vals []float64, scale float64, unit string) sample {
	s := sortedCopy(vals)
	return sample{
		Value: quantile(s, 0.5) * scale,
		Unit:  unit,
		N:     len(s),
		Q1:    quantile(s, 0.25) * scale,
		Q3:    quantile(s, 0.75) * scale,
	}
}

// quiet summarises latencies × scale by their lower quartile. On a shared
// box a latency's noise is one-sided: the round trip has modes near 12, 16
// and 60 us that come and go for hundreds of calls at a time with the
// scheduler's and the neighbours' state, so a run's median wanders by 10 to
// 20 % while its lower quartile — the round trip with the box quiet — holds
// within 3 % and resolves differences the median cannot. README.md has the
// measurements.
func quiet(vals []float64, scale float64, unit string) sample {
	s := median(vals, scale, unit)
	s.Value = s.Q1
	return s
}

// p99 reports the 99th percentile of vals × scale, or 0 when fewer than ten
// samples lie beyond it: a percentile the sample cannot support is not
// reported.
func p99(vals []float64, scale float64, unit string) sample {
	if len(vals) < 1000 {
		return sample{Unit: unit, N: len(vals)}
	}
	return sample{Value: quantile(sortedCopy(vals), 0.99) * scale, Unit: unit, N: len(vals)}
}

func one(v float64, unit string) sample { return sample{Value: v, Unit: unit, N: 1} }

// perOp spreads a counter's total over the operations it was counted across.
func perOp(total float64, ops int64, unit string) sample {
	return sample{Value: total / float64(ops), Unit: unit, N: int(ops)}
}

// timeEach runs fn n times and returns each call's duration in seconds.
func timeEach(n int, fn func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t := time.Now()
		fn()
		out[i] = time.Since(t).Seconds()
	}
	return out
}

// timeLoop runs fn n times under one timer and returns seconds per call:
// for bodies too short to time one by one.
func timeLoop(n int, fn func()) float64 {
	t := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(t).Seconds() / float64(n)
}

// allocsPer reports heap allocations and bytes per call of fn, counted over
// the whole process: with in-process nodes that is client and server side
// together, which is what a copy-elimination on either side should move.
func allocsPer(n int, fn func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
