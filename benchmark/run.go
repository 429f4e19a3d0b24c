package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// result is what one run of one workload reports.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]sample `json:"metrics"`
	// Notes are the traced run's accounting lines.
	Notes  []string `json:"notes,omitempty"`
	Errors []string `json:"errors,omitempty"`
}

// setups is how many times an untraced run brings its workload up: set-up
// time is the median of them, so one slow launch does not read as a
// regression. traceRounds is how many plain/traced pairs of blocks a traced
// run compares.
const (
	setups      = 3
	traceRounds = 3
)

// runWorkload runs one workload in this process and reports the end-to-end
// metrics: it sets up `setups` times, then runs measurement blocks for
// `seconds` (at least one).
func runWorkload(w workload, c config, seconds time.Duration, progress func(attempted, failed int64)) result {
	res := result{Workload: w.name, Seed: c.seed, Metrics: make(map[string]sample)}
	var inst instance
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(c, nil, nil); err != nil {
			return res.lost(fmt.Errorf("set-up: %w", err))
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer inst.close()

	var m measure
	start := time.Now()
	for blocks := 0; blocks == 0 || time.Since(start) < seconds; blocks++ {
		inst.block(&m, nil)
		progress(m.attempted, m.failed)
	}
	inst.finish(&m, map[string]sample{})
	res.Metrics["setup_s"] = median(setupTimes, 1, "s")
	res.Metrics["ops_per_s"] = median(m.rate, 1, "1/s")
	res.Metrics["op_q1_ms"] = quiet(m.latency, 1e3, "ms")
	res.Metrics["peak_rss_mb"] = one(peakRSSMiB(), "MiB")
	return res.settle(m)
}

// traceWorkload runs the per-layer pass: short blocks of the workload,
// alternately with the span recorder off and on, then the ladder. The
// spans say where a block's time went, the walls of the two kinds of block
// give the recorder's own cost, and the spans go to traceFile.
func traceWorkload(w workload, c config, traceFile string, progress func(attempted, failed int64)) result {
	res := result{Workload: w.name, Seed: c.seed, Traced: true, Metrics: make(map[string]sample)}
	rec := newRecorder()
	probe := &servantProbe{rec: rec}
	inst, err := w.setup(c, rec, probe)
	if err != nil {
		return res.lost(fmt.Errorf("set-up: %w", err))
	}
	defer inst.close()

	plain, spanned := measure{short: true}, measure{short: true}
	var plainWall, spannedWall []float64
	for round := 0; round < traceRounds; round++ {
		start := time.Now()
		inst.block(&plain, nil)
		plainWall = append(plainWall, time.Since(start).Seconds())
		probe.on.Store(true)
		start = time.Now()
		inst.block(&spanned, rec)
		spannedWall = append(spannedWall, time.Since(start).Seconds())
		probe.on.Store(false)
		progress(plain.attempted+spanned.attempted, plain.failed+spanned.failed)
	}
	m := measure{
		attempted: plain.attempted + spanned.attempted,
		failed:    plain.failed + spanned.failed,
		errs:      append(plain.errs, spanned.errs...),
	}
	inst.finish(&m, res.Metrics)

	var traced float64
	for _, wall := range spannedWall {
		traced += wall
	}
	res.Metrics["trace.overhead_pct"] = sample{
		Value: (median(spannedWall, 1, "s").Value/median(plainWall, 1, "s").Value - 1) * 100, Unit: "%", N: traceRounds}
	res.Metrics["trace.spans"] = one(float64(rec.count()), "count")
	for layer, lt := range rec.byLayer() {
		res.Metrics["trace."+layer+".self_share"] = sample{Value: lt.Self.Seconds() / traced, Unit: "ratio", N: lt.Spans}
	}
	res.Metrics["netrmi.servant_share"] = one(time.Duration(probe.busy.Load()).Seconds()/traced, "ratio")
	res.Metrics["tail.op_p50_ms"] = median(plain.latency, 1e3, "ms")
	res.Metrics["tail.op_p99_ms"] = p99(plain.latency, 1e3, "ms")

	rungs, errs := runLadder(c, rec)
	for name, s := range rungs {
		res.Metrics[name] = s
	}
	m.attempted += int64(len(rungs))
	if len(errs) > 0 {
		m.fail(int64(len(errs)), "ladder: %v", errs)
	}
	res.Notes = accounting(w.name, res.Metrics, quiet(plain.latency, 1e3, "ms").Value)
	if err := os.MkdirAll(filepath.Dir(traceFile), 0o755); err != nil {
		return res.lost(err)
	}
	if err := rec.write(traceFile); err != nil {
		return res.lost(err)
	}
	return res.settle(m)
}

// lost reports a run that could not finish as one failed operation.
func (r result) lost(err error) result {
	r.Attempted, r.Failed = r.Attempted+1, r.Failed+1
	r.Errors = append(r.Errors, err.Error())
	return r
}

func (r result) settle(m measure) result {
	r.Attempted, r.Failed, r.Errors = m.attempted, m.failed, m.errs
	r.Correct = m.failed == 0 && m.attempted > 0
	return r
}

// accounting splits a lone operation's lower-quartile latency into what the ladder
// can explain and what it cannot. Only the two workloads whose latency is a
// stack of measured rungs have such a line.
func accounting(workload string, metrics map[string]sample, q1ms float64) []string {
	v := func(name string) float64 { return metrics[name].Value }
	switch workload {
	case "call-small":
		total := q1ms * 1e3
		woven, self, rtt := v("aspect.woven0_ns")/1e3, v("netrmi.self_us"), v("rmi.rtt_small_us")
		return []string{fmt.Sprintf(
			"op_q1 %.2f us = aspect.woven0 %.2f + netrmi.self %.2f + rmi.rtt_small %.2f + unexplained %.2f",
			total, woven, self, rtt, total-woven-self-rtt)}
	case "stream-frames":
		ingest, hops, hop := v("netrmi.rtt_us")/1e3, v("topology.peer_forwards_per_op"), v("topology.hop_us")/1e3
		return []string{fmt.Sprintf(
			"op_q1 %.3f ms = ingest rtt %.3f + %.1f hops x topology.hop %.3f + unexplained %.3f (the service polls for completions every 2 ms)",
			q1ms, ingest, hops, hop, q1ms-ingest-hops*hop)}
	}
	return nil
}

// environment is recorded with every results file.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
	// Network says what the traffic crossed: the nodes are in-process
	// daemons on the host's loopback interface, never a real link.
	Network string `json:"network"`
}

func currentEnvironment() environment {
	return environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     commit(),
		Network:    "loopback TCP, in-process nodes",
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
