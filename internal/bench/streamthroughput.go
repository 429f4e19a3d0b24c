package bench

import (
	"fmt"
	"time"

	"aspectpar/internal/apps/imagepipe"
)

// StreamPoint is one measured cell of the resident-service sweep: an
// open-ended frame stream driven through the imagepipe Service over
// loopback nodes, with the stage topology installed so every inner hop runs
// peer-to-peer. Where the net-throughput sweep prices one round-trip call,
// this cell prices the full streaming path: windowed one-way ingest, two
// node-side hops, pushed completions.
type StreamPoint struct {
	Frames       int
	FrameLen     int // float64 samples per frame
	Window       int // in-flight frames the service admits
	Elapsed      time.Duration
	FramesPerSec float64
	MBPerSec     float64 // input payload moved per second
	PeerForwards int64   // node-side hops (sanity: ≈ frames × inner boundaries)
}

// StreamThroughput measures the resident streaming service: frames
// frame-sized payloads submitted in submit-sized waves against a two-node
// deployment, drained to completion. Best of runs is reported.
func StreamThroughput(frames, frameLen, window, runs int) (StreamPoint, error) {
	pt := StreamPoint{Frames: frames, FrameLen: frameLen, Window: window}

	input := make([]imagepipe.Frame, frames)
	for i := range input {
		f := make(imagepipe.Frame, frameLen)
		for j := range f {
			f[j] = float64((i+j)%97) / 97
		}
		input[i] = f
	}
	wave := window / 2
	if wave < 1 {
		wave = 1
	}
	drive := func(s *imagepipe.Service, n int) error {
		for lo := 0; lo < n; lo += wave {
			hi := lo + wave
			if hi > n {
				hi = n
			}
			if _, err := s.Submit(input[lo:hi]); err != nil {
				return err
			}
		}
		if err := s.Flush(); err != nil {
			return err
		}
		s.Take()
		return nil
	}

	if runs < 1 {
		runs = 1
	}
	best := time.Duration(0)
	for r := 0; r < runs; r++ {
		s, err := imagepipe.StartService(imagepipe.ServiceConfig{Nodes: 2, Window: window})
		if err != nil {
			return pt, fmt.Errorf("bench: stream service: %w", err)
		}
		if err := drive(s, frames/10+1); err != nil { // warm lanes and caches
			s.Close()
			return pt, err
		}
		start := time.Now()
		err = drive(s, frames)
		elapsed := time.Since(start)
		stats := s.Stats()
		s.Close()
		if err != nil {
			return pt, err
		}
		if best == 0 || elapsed < best {
			best = elapsed
			pt.PeerForwards = stats.Topo.PeerForwards
		}
	}
	pt.Elapsed = best
	secs := best.Seconds()
	pt.FramesPerSec = float64(frames) / secs
	pt.MBPerSec = float64(frames) * float64(8*frameLen) / secs / (1 << 20)
	return pt, nil
}

// StreamEntries renders the point as a record entry next to the transport
// cells: Max carries the frame length, Packs the frame count.
func StreamEntries(p StreamPoint) []Entry {
	return []Entry{{
		Experiment:  "stream-throughput",
		Series:      "imagepipe-topology",
		Window:      p.Window,
		Max:         p.FrameLen,
		Packs:       p.Frames,
		CallsPerSec: p.FramesPerSec,
		MBPerSec:    p.MBPerSec,
	}}
}

// FormatStream renders the streaming cell as a table row.
func FormatStream(p StreamPoint) string {
	var b []byte
	b = fmt.Appendf(b, "Stream throughput - resident imagepipe service, peer-to-peer hops\n\n")
	b = fmt.Appendf(b, "%-20s %8s %8s %12s %12s %12s %10s\n",
		"series", "frames", "window", "frames/s", "MB/s", "hops", "elapsed")
	b = fmt.Appendf(b, "%-20s %8d %8d %12.0f %12.2f %12d %10s\n",
		"imagepipe-topology", p.Frames, p.Window, p.FramesPerSec, p.MBPerSec,
		p.PeerForwards, p.Elapsed.Round(time.Millisecond))
	return string(b)
}
