package par

import (
	"errors"

	"aspectpar/internal/clock"
	"aspectpar/internal/exec"
	"aspectpar/internal/rmi"
)

// Functional construction options for the real-TCP middleware. DialNet is
// its one constructor: every knob is fixed before any connection exists, so
// no call can observe a half-configured middleware.

// NetOption configures a NetRMI at DialNet.
type NetOption func(*netOptions)

type netOptions struct {
	clk     clock.Clock
	faults  FaultPolicy
	codec   rmi.Codec
	streams int
}

// WithNetClock installs the middleware's time source: reconnect backoffs,
// export-retry graces and RTT stamps all ride it (the chaos harness passes a
// virtual clock). nil keeps the wall clock.
func WithNetClock(clk clock.Clock) NetOption {
	return func(o *netOptions) { o.clk = clk }
}

// WithFaultPolicy sets what the call journal does when the transport fails:
// reconnect/replay with session-epoch handshakes, state reconstruction,
// placement failover (see FaultPolicy). Without it — or with a policy whose
// Enabled is false — the middleware fails fast.
func WithFaultPolicy(p FaultPolicy) NetOption {
	return func(o *netOptions) { o.faults = p }
}

// WithCodec selects the frame codec of every node connection. Without it
// every connection speaks the compact binary format (rmi.Dial's default);
// rmi.GobCodec() pins the middleware to gob. A node answers each connection
// in the codec it opened with, so one node serves both.
func WithCodec(c rmi.Codec) NetOption {
	return func(o *netOptions) { o.codec = c }
}

// WithStreams multiplexes each peer connection into n independent dispatch
// streams: exported objects are assigned streams round-robin, so a slow call
// on one object no longer head-of-line-blocks calls on others placed at the
// same node, while per-object call order is preserved. Values below 2 keep
// the single FIFO pipeline. The fault journal, dedupe and replay are keyed
// per (stream, seq) throughout.
func WithStreams(n int) NetOption {
	return func(o *netOptions) { o.streams = n }
}

// DialNet builds the real-TCP middleware over a node address table
// (addrs[n] is the rmi.Node daemon playing cluster node n; placement
// policies select among exactly these node IDs) and eagerly dials every
// configured node, so a bad address or unreachable daemon surfaces here
// rather than at the first placement.
//
// With a fault policy enabled, individual dial failures are NOT errors: a
// node that is down at construction is exactly what the recovery machinery
// exists for, and the export/replay paths re-dial it (or fail over) when it
// is first needed.
func DialNet(addrs map[exec.NodeID]string, opts ...NetOption) (*NetRMI, error) {
	var o netOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	m := &NetRMI{
		mwCore:   newMWCore(),
		addrs:    make(map[exec.NodeID]string, len(addrs)),
		peers:    make(map[exec.NodeID]*netPeer),
		cordoned: make(map[exec.NodeID]bool),
		clk:      clock.Or(o.clk),
		codec:    o.codec,
		streams:  o.streams,
	}
	for n, a := range addrs {
		m.addrs[n] = a
	}
	m.faults = newNetFaults(m, o.faults)
	var errs []error
	for _, node := range m.nodeIDs() {
		if _, err := m.peer(node); err != nil && !o.faults.Enabled {
			errs = append(errs, err) // otherwise recovery's problem: it re-dials on first use
		}
	}
	if len(errs) > 0 {
		m.Close()
		return nil, errors.Join(errs...)
	}
	return m, nil
}
