package bench

import (
	"fmt"
	"time"

	"aspectpar/internal/exec"
	"aspectpar/internal/par"
	"aspectpar/internal/rmi"
)

// This file is the wall-clock half of the harness: where the virtual-time
// experiments measure the paper's cost model, the net-throughput sweep
// measures the real transport — windowed calls over loopback TCP through
// par.NetRMI — and pins the wire-speed configuration (binary codec, pack
// batching, multiplexed streams) against the gob/FIFO baseline it replaced.
// CI gates the numbers two ways: each cell against a conservatively recorded
// wall-clock baseline, and the fast configuration against the slow one
// within the same run (the speedup is machine-relative, so it is the robust
// assertion; the absolute floor only catches catastrophic regressions).

// ThroughputConfig names one transport configuration of the sweep.
type ThroughputConfig struct {
	Series  string // record series name
	Codec   string // "" keeps gob
	Streams int    // <2 keeps the single FIFO lane
}

// ThroughputPoint is one measured transport cell.
type ThroughputPoint struct {
	Config      ThroughputConfig
	Calls       int
	PayloadInts int // []int32 elements per call, echoed back
	Window      int
	Elapsed     time.Duration
	CallsPerSec float64
	MBPerSec    float64 // payload bytes moved (both directions) per second
}

// ThroughputConfigs returns the sweep's two cells: the gob/FIFO transport
// the middleware shipped with, and the wire-speed configuration.
func ThroughputConfigs(streams int) []ThroughputConfig {
	if streams < 2 {
		streams = 3
	}
	return []ThroughputConfig{
		{Series: "gob-fifo"},
		{Series: "binary-streams", Codec: "binary", Streams: streams},
	}
}

// echoClass defines the benchmark servant: Echo returns its argument list
// unchanged, so a call's cost is pure transport — encode, wire, decode,
// dispatch, and back.
func echoClass() *par.Class {
	return par.NewDomain().Define("Echo",
		func(args []any) (any, error) { return &struct{}{}, nil },
		map[string]par.MethodBody{
			"Echo": func(target any, args []any) ([]any, error) { return args, nil },
		}).Wire([]int32(nil))
}

// NetThroughput measures one transport configuration: calls windowed
// round-trip invocations of payloadInts-element []int32 payloads against a
// loopback node daemon, keeping window calls in flight, spread over enough
// objects to populate every stream. Best of runs is reported — wall-clock
// noise only ever slows a run down.
func NetThroughput(cfg ThroughputConfig, calls, payloadInts, window, runs int) (ThroughputPoint, error) {
	pt := ThroughputPoint{Config: cfg, Calls: calls, PayloadInts: payloadInts, Window: window}
	ctx := exec.Real()

	node := rmi.NewNode(exec.Real())
	defer node.Close()
	par.HostClass(node, echoClass())
	addr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		return pt, fmt.Errorf("bench: loopback node: %w", err)
	}

	// "" keeps gob, pinned: left to rmi.Dial's default the cell would
	// negotiate binary and stop measuring the transport it is named after.
	codecName := cfg.Codec
	if codecName == "" {
		codecName = "gob"
	}
	codec, err := rmi.CodecByName(codecName)
	if err != nil {
		return pt, err
	}
	opts := []par.NetOption{par.WithCodec(codec)}
	if cfg.Streams > 1 {
		opts = append(opts, par.WithStreams(cfg.Streams))
	}
	mw, err := par.DialNet(par.NetAddressTable(addr), opts...)
	if err != nil {
		return pt, err
	}
	defer mw.Close()

	// One object per stream (at least two overall), so multiplexed cells
	// exercise every lane and FIFO cells measure the shared one.
	objects := cfg.Streams
	if objects < 2 {
		objects = 2
	}
	class := echoClass()
	objs := make([]any, objects)
	for i := range objs {
		obj, err := mw.ExportNew(ctx, fmt.Sprintf("echo%d", i), 0, class, nil, nil)
		if err != nil {
			return pt, err
		}
		objs[i] = obj
	}

	payload := make([]int32, payloadInts)
	for i := range payload {
		payload[i] = int32(i)
	}
	drive := func(n int) error {
		done := ctx.NewChan(window)
		issued, completed, inflight := 0, 0, 0
		for completed < n {
			for inflight < window && issued < n {
				mw.InvokeAsync(ctx, objs[issued%len(objs)], "Echo", []any{payload}, false, done)
				issued++
				inflight++
			}
			v, ok := done.Recv(ctx)
			if !ok {
				return fmt.Errorf("bench: completion channel closed")
			}
			if _, err := v.(*par.Completion).Reclaim(ctx); err != nil {
				return err
			}
			inflight--
			completed++
		}
		return nil
	}

	if err := drive(calls / 10); err != nil { // warm the path: pools, lanes, codec switch
		return pt, err
	}
	if runs < 1 {
		runs = 1
	}
	best := time.Duration(0)
	for r := 0; r < runs; r++ {
		start := time.Now()
		if err := drive(calls); err != nil {
			return pt, err
		}
		if elapsed := time.Since(start); best == 0 || elapsed < best {
			best = elapsed
		}
	}
	pt.Elapsed = best
	secs := best.Seconds()
	pt.CallsPerSec = float64(calls) / secs
	pt.MBPerSec = float64(calls) * float64(8*payloadInts) / secs / (1 << 20)
	return pt, nil
}

// ThroughputEntries renders measured points as record entries: Max carries
// the payload element count and Packs the call count, so the key pins the
// workload shape the way the virtual-time keys pin theirs.
func ThroughputEntries(points []ThroughputPoint) []Entry {
	out := make([]Entry, 0, len(points))
	for _, p := range points {
		out = append(out, Entry{
			Experiment:  "net-throughput",
			Series:      p.Config.Series,
			Codec:       p.Config.Codec,
			Streams:     p.Config.Streams,
			Window:      p.Window,
			Max:         p.PayloadInts,
			Packs:       p.Calls,
			CallsPerSec: p.CallsPerSec,
			MBPerSec:    p.MBPerSec,
		})
	}
	return out
}

// FormatThroughput renders the sweep as a table.
func FormatThroughput(points []ThroughputPoint) string {
	var b []byte
	b = fmt.Appendf(b, "Net throughput - windowed calls over loopback NetRMI\n\n")
	b = fmt.Appendf(b, "%-16s %8s %8s %8s %12s %12s %10s\n",
		"series", "codec", "streams", "window", "calls/s", "MB/s", "elapsed")
	for _, p := range points {
		codec := p.Config.Codec
		if codec == "" {
			codec = "gob"
		}
		streams := p.Config.Streams
		if streams < 2 {
			streams = 1
		}
		b = fmt.Appendf(b, "%-16s %8s %8d %8d %12.0f %12.2f %10s\n",
			p.Config.Series, codec, streams, p.Window, p.CallsPerSec, p.MBPerSec, p.Elapsed.Round(time.Millisecond))
	}
	return string(b)
}
