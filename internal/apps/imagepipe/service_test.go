package imagepipe

import (
	"errors"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aspectpar/internal/aspect"
	"aspectpar/internal/clock"
	"aspectpar/internal/exec"
	"aspectpar/internal/par"
	"aspectpar/internal/rmi"
)

func requireLoopback(t *testing.T) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	l.Close()
}

// assertStream checks the collected results against the sequential oracle:
// every submitted id present, exactly once, byte-equal output.
func assertStream(t *testing.T, got map[int64]Frame, ids []int64, in, want []Frame) {
	t.Helper()
	if len(got) != len(ids) {
		t.Fatalf("delivered %d frames, want %d", len(got), len(ids))
	}
	for i, id := range ids {
		out, ok := got[id]
		if !ok {
			t.Fatalf("frame %d lost", id)
		}
		if len(out) != len(want[i]) {
			t.Fatalf("frame %d: %d samples, want %d", id, len(out), len(want[i]))
		}
		for j := range out {
			if math.Abs(out[j]-want[i][j]) > 1e-12 {
				t.Fatalf("frame %d sample %d = %v, want %v", id, j, out[j], want[i][j])
			}
		}
	}
}

// TestServiceStreamsOverTwoNodes is the happy-path resident service: an
// open-ended stream submitted in several waves over two real-TCP nodes,
// with the inner hops running peer-to-peer.
func TestServiceStreamsOverTwoNodes(t *testing.T) {
	requireLoopback(t)
	s, err := StartService(ServiceConfig{Nodes: 2, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	in := frames(24, 32)
	want := Sequential(in)
	var ids []int64
	for lo := 0; lo < len(in); lo += 6 { // four waves of six
		batch, err := s.Submit(in[lo : lo+6])
		if err != nil {
			t.Fatalf("submit wave at %d: %v", lo, err)
		}
		ids = append(ids, batch...)
	}
	got, err := s.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	assertStream(t, got, ids, in, want)

	st := s.Stats()
	if st.Completed != int64(len(in)) || st.Duplicates != 0 {
		t.Errorf("stats: %+v", st)
	}
	// Peer-to-peer: every frame crosses two stage boundaries node-side.
	if min := int64(len(in)); st.Topo.PeerForwards < min {
		t.Errorf("PeerForwards = %d, want at least %d", st.Topo.PeerForwards, min)
	}
	if st.Topo.Installs == 0 {
		t.Error("topology was never installed")
	}
	if _, err := s.Submit(in[:1]); err == nil {
		t.Error("Submit after Drain should fail")
	}
}

// TestServiceSurvivesMidStreamStageKill is the chaos conformance cell: a
// node hosting a mid-pipeline stage is crashed while the stream is open.
// The fault layer reincarnates the stage, the topology control plane heals
// the hop and redelivers strands, the service's end-to-end retry re-ingests
// anything lost inside the dead process — and the delivered stream must
// still be exactly the oracle: no frame lost, none duplicated.
func TestServiceSurvivesMidStreamStageKill(t *testing.T) {
	requireLoopback(t)

	nodes, addrs := startStageNodes(t, nil)
	s, err := StartService(ServiceConfig{Addrs: addrs, RetryAfter: 150 * time.Millisecond, Faults: chaosFaults})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	in := frames(30, 24)
	want := Sequential(in)

	// First wave flows healthy, then the middle stage's node dies hard
	// mid-stream and the rest of the stream is submitted into the outage.
	ids, err := s.Submit(in[:10])
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("flush before kill: %v", err)
	}
	nodes[1].Abort()
	for lo := 10; lo < len(in); lo += 5 {
		batch, err := s.Submit(in[lo : lo+5])
		if err != nil {
			t.Fatalf("submit wave at %d: %v", lo, err)
		}
		ids = append(ids, batch...)
	}
	got, err := s.Drain()
	if err != nil {
		t.Fatalf("drain through the kill: %v (recorded: %v)", err, s.Err())
	}
	assertStream(t, got, ids, in, want)

	st := s.Stats()
	if st.Duplicates != 0 {
		t.Errorf("duplicated deliveries: %+v", st)
	}
	if st.Completed != int64(len(in)) {
		t.Errorf("completed %d of %d", st.Completed, len(in))
	}
}

// TestServiceCompletesWithoutPolling is the deterministic form of "no poll on
// the fast path": the service runs on a virtual clock that nobody advances,
// so the heartbeat timer can never fire and a waiter in Submit or Flush can
// only be released by the parked ledger read's reply. A lone frame, then
// 2,000 frames in waves of 32 through a window of 64, must all arrive with
// zero heartbeat pumps.
func TestServiceCompletesWithoutPolling(t *testing.T) {
	requireLoopback(t)
	clk := clock.NewVirtual(time.Unix(0, 0))
	defer clk.Close()
	s, err := StartService(ServiceConfig{Nodes: 2, Window: 64, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	in := frames(2000, 16)
	want := Sequential(in)
	got := make(map[int64]Frame)
	take := func() {
		for id, f := range s.Take() {
			got[id] = f
		}
	}

	ids, err := s.Submit(in[:1])
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	take()
	for lo := 1; lo < len(in); lo += 32 {
		batch, err := s.Submit(in[lo:min(lo+32, len(in))])
		if err != nil {
			t.Fatalf("submit wave at %d: %v", lo, err)
		}
		ids = append(ids, batch...)
		take()
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	take()
	assertStream(t, got, ids, in, want)

	s.mu.Lock()
	pumps := s.pumps
	s.mu.Unlock()
	if pumps != 0 {
		t.Errorf("%d heartbeat pumps with the clock frozen, want 0", pumps)
	}
	if st := s.Stats(); st.Duplicates != 0 || st.Retried != 0 || st.Topo.PeerForwards != 2*int64(len(in)) {
		t.Errorf("stats: %+v", st)
	}
}

// startStageNodes launches one daemon per stage (round-robin placement gives
// each stage a node of its own, the middle stage node 1), so a test can fault
// exactly one stage. wire, if non-nil, may plug test advice into each node's
// domain before it serves.
func startStageNodes(t *testing.T, wire func(node *rmi.Node, dom *par.Domain)) ([]*rmi.Node, []string) {
	t.Helper()
	var nodes []*rmi.Node
	var addrs []string
	for range Kinds {
		node := rmi.NewNode(exec.Real())
		dom := par.NewDomain()
		par.HostClass(node, DefineClass(dom))
		if wire != nil {
			wire(node, dom)
		}
		addr, err := node.Listen("127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback TCP unavailable: %v", err)
		}
		t.Cleanup(node.Close)
		nodes = append(nodes, node)
		addrs = append(addrs, addr)
	}
	return nodes, addrs
}

var chaosFaults = par.FaultPolicy{
	Enabled: true, // failover is the default: a dead stage reincarnates
	Reconnect: rmi.ReconnectPolicy{
		MaxAttempts: 8, BaseBackoff: 2 * time.Millisecond,
	},
}

// TestServiceSurvivesTerminalStageKill crashes the node hosting the TERMINAL
// stage — the completion ledger and the parked read die with it — while
// frames are in flight. The stage is rebuilt on a survivor with an empty
// ledger under a new incarnation stamp; the driver must notice, restart its
// cursor instead of waiting for positions the new ledger will never reach,
// and still deliver every frame exactly once.
func TestServiceSurvivesTerminalStageKill(t *testing.T) {
	requireLoopback(t)
	// The crash point is an event, not a sleep: the terminal stage's third
	// Ingest after arming takes its node down. Earlier frames completed and
	// were acknowledged upstream; this one and those behind it are in flight,
	// and from here on the dying node executes nothing (Abort cannot be
	// waited for from inside a dispatch, so the advice refuses instead).
	var armed atomic.Bool
	var calls atomic.Int32
	_, addrs := startStageNodes(t, func(node *rmi.Node, dom *par.Domain) {
		var down atomic.Bool
		dom.Weaver().Plug(aspect.NewAspect("kill", 100).Around(aspect.Call("Stage", "Ingest"),
			func(jp *aspect.JoinPoint, proceed aspect.ProceedFunc) ([]any, error) {
				if jp.Target.(*Stage).last && armed.Load() && calls.Add(1) == 3 {
					down.Store(true)
					go node.Abort()
				}
				if down.Load() {
					return nil, errors.New("node is down")
				}
				return proceed(jp.Args)
			}))
	})
	s, err := StartService(ServiceConfig{Addrs: addrs, RetryAfter: 150 * time.Millisecond, Faults: chaosFaults})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	in := frames(30, 24)
	want := Sequential(in)
	ids, err := s.Submit(in[:10])
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("flush before kill: %v", err)
	}
	armed.Store(true)
	for lo := 10; lo < len(in); lo += 5 {
		batch, err := s.Submit(in[lo : lo+5])
		if err != nil {
			t.Fatalf("submit wave at %d: %v", lo, err)
		}
		ids = append(ids, batch...)
	}
	got, err := s.Drain()
	if err != nil {
		t.Fatalf("drain through the kill: %v (recorded: %v)", err, s.Err())
	}
	if calls.Load() < 3 {
		t.Fatal("the terminal node was never killed")
	}
	assertStream(t, got, ids, in, want)
	st := s.Stats()
	if st.Duplicates != 0 || st.Completed != int64(len(in)) {
		t.Errorf("stats: %+v", st)
	}
	s.mu.Lock()
	resets := s.resets
	s.mu.Unlock()
	if resets == 0 {
		t.Error("the ledger restarted under a new incarnation, but the cursor was never reset")
	}
}

// TestServiceRetriesSlowFramesExactlyOnce pins the "slow, not lost" retry
// path: the middle stage holds each frame's first Ingest well past the
// service's retry deadline, so the service re-ingests frames that are still
// in flight and every stage sees ids it has already filtered. No node fails;
// the stream must still be exactly the oracle, delivered once.
func TestServiceRetriesSlowFramesExactlyOnce(t *testing.T) {
	requireLoopback(t)
	const retryAfter = 20 * time.Millisecond
	var slowed sync.Map // ids whose first Ingest at the middle stage was held
	_, addrs := startStageNodes(t, func(node *rmi.Node, dom *par.Domain) {
		dom.Weaver().Plug(aspect.NewAspect("slow", 100).Around(aspect.Call("Stage", "Ingest"),
			func(jp *aspect.JoinPoint, proceed aspect.ProceedFunc) ([]any, error) {
				if jp.Target.(*Stage).kind == Kinds[1] {
					if _, again := slowed.LoadOrStore(jp.Args[0].(int64), true); !again {
						time.Sleep(3 * retryAfter)
					}
				}
				return proceed(jp.Args)
			}))
	})
	s, err := StartService(ServiceConfig{Addrs: addrs, RetryAfter: retryAfter})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	in := frames(12, 24)
	want := Sequential(in)
	var ids []int64
	for lo := 0; lo < len(in); lo += 4 {
		batch, err := s.Submit(in[lo : lo+4])
		if err != nil {
			t.Fatalf("submit wave at %d: %v", lo, err)
		}
		ids = append(ids, batch...)
	}
	got, err := s.Drain()
	if err != nil {
		t.Fatalf("drain: %v (recorded: %v)", err, s.Err())
	}
	assertStream(t, got, ids, in, want)
	st := s.Stats()
	if st.Retried == 0 {
		t.Error("no frame was re-ingested while still in flight")
	}
	if st.Duplicates != 0 || st.Completed != int64(len(in)) {
		t.Errorf("stats: %+v", st)
	}
}

// TestServiceSurvivesLostLedgerReply severs the completion lane after a
// parked AwaitDone executed at the terminal stage and before its reply could
// be written: the entries that reply carried reached nobody. Because the read
// acknowledges by cursor instead of draining, the next read returns them
// again, and every frame is delivered exactly once.
func TestServiceSurvivesLostLedgerReply(t *testing.T) {
	requireLoopback(t)
	var lost atomic.Int64 // entries in the reply that was cut off
	_, addrs := startStageNodes(t, func(node *rmi.Node, dom *par.Domain) {
		dom.Weaver().Plug(aspect.NewAspect("sever", 100).Around(aspect.Call("Stage", "AwaitDone"),
			func(jp *aspect.JoinPoint, proceed aspect.ProceedFunc) ([]any, error) {
				res, err := proceed(jp.Args)
				if err == nil && len(res[2].([]int64)) > 0 && lost.Load() == 0 {
					lost.Store(int64(len(res[2].([]int64))))
					node.DropConns()
				}
				return res, err
			}))
	})
	s, err := StartService(ServiceConfig{Addrs: addrs, RetryAfter: 150 * time.Millisecond, Faults: chaosFaults})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	in := frames(30, 24)
	want := Sequential(in)
	var ids []int64
	for lo := 0; lo < len(in); lo += 5 {
		batch, err := s.Submit(in[lo : lo+5])
		if err != nil {
			t.Fatalf("submit wave at %d: %v", lo, err)
		}
		ids = append(ids, batch...)
	}
	got, err := s.Drain()
	if err != nil {
		t.Fatalf("drain through the cut: %v (recorded: %v)", err, s.Err())
	}
	if lost.Load() == 0 {
		t.Fatal("no ledger reply was cut off")
	}
	assertStream(t, got, ids, in, want)
	if st := s.Stats(); st.Duplicates != 0 || st.Completed != int64(len(in)) {
		t.Errorf("stats: %+v", st)
	}
}
