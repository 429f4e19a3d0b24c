package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"aspectpar/internal/exec"
	"aspectpar/internal/par"
	"aspectpar/internal/rmi"
)

// tally is the benchmark's own servant: Add folds a pack into a running sum
// and returns it, Echo hands its argument back. Every reply is therefore a
// function of everything the object has executed so far, which is what lets
// the driver check exactly-once execution from the replies alone.
//
// The sum starts at index<<indexShift: a reply's high bits say which object
// produced it (par.Completion carries no tag), the low bits are the sum.
type tally struct {
	index int64
	sum   int64
	calls int64
	// corruptEvery > 0 makes every corruptEvery-th Add add one too many —
	// the broken servant the smoke test uses to see fail_ratio rise.
	corruptEvery int64
}

const indexShift = 48

// opID names one call on one object; driver and servant both count an
// object's calls from 1, so both can compute it without sending it.
func opID(index, call int64) int64 { return index<<40 | call }

// servantProbe is how a traced run sees inside the in-process nodes: the
// servant bodies add their time to busy and record a span each. Nil in
// untraced runs.
type servantProbe struct {
	rec  *recorder
	on   atomic.Bool  // set for the traced block only
	busy atomic.Int64 // nanoseconds inside servant bodies while on
}

func (p *servantProbe) enter(name string, op int64) (int64, time.Time) {
	if p == nil || !p.on.Load() {
		return 0, time.Time{}
	}
	return p.rec.beginOwned(name, op), time.Now()
}

func (p *servantProbe) leave(id int64, t time.Time) {
	if t.IsZero() {
		return
	}
	p.busy.Add(int64(time.Since(t)))
	p.rec.end(id)
}

// randomPack makes a pack of n seeded values.
func randomPack(rng *rand.Rand, n int) []int32 {
	pack := make([]int32, n)
	for i := range pack {
		pack[i] = rng.Int31n(1 << 20)
	}
	return pack
}

func sum32(v []int32) int64 {
	var s int64
	for _, x := range v {
		s += int64(x)
	}
	return s
}

// tallyClass defines Tally on dom. Driver and nodes each call it on their
// own domain, as two processes would.
func tallyClass(dom *par.Domain, probe *servantProbe) *par.Class {
	return dom.Define("Tally",
		func(args []any) (any, error) {
			index := args[0].(int64)
			return &tally{index: index, sum: index << indexShift, corruptEvery: args[1].(int64)}, nil
		},
		map[string]par.MethodBody{
			"Add": func(target any, args []any) ([]any, error) {
				t := target.(*tally)
				t.calls++
				id, start := probe.enter("servant.Add", opID(t.index, t.calls))
				t.sum += sum32(args[0].([]int32))
				if t.corruptEvery > 0 && t.calls%t.corruptEvery == 0 {
					t.sum++
				}
				probe.leave(id, start)
				return []any{t.sum}, nil
			},
			"Echo": func(target any, args []any) ([]any, error) {
				t := target.(*tally)
				t.calls++
				id, start := probe.enter("servant.Echo", opID(t.index, t.calls))
				probe.leave(id, start)
				return args, nil
			},
			// Snapshot/Restore opt the class into the fault journal's
			// checkpoints (par.FaultPolicy.CheckpointEvery).
			"Snapshot": func(target any, args []any) ([]any, error) {
				t := target.(*tally)
				return []any{t.sum, t.calls}, nil
			},
			"Restore": func(target any, args []any) ([]any, error) {
				t := target.(*tally)
				t.sum, t.calls = args[0].(int64), args[1].(int64)
				return nil, nil
			},
		}).Wire([]int32(nil), int64(0))
}

// launchNodes starts n in-process loopback daemons, each hosting the class
// on a fresh domain of its own — the process model without the processes —
// and returns them with their addresses.
func launchNodes(n int, define func(*par.Domain) *par.Class) ([]*rmi.Node, []string, error) {
	var nodes []*rmi.Node
	var addrs []string
	for i := 0; i < n; i++ {
		node := rmi.NewNode(exec.Real())
		par.HostClass(node, define(par.NewDomain()))
		addr, err := node.Listen("127.0.0.1:0")
		if err != nil {
			for _, started := range nodes {
				started.Close()
			}
			return nil, nil, fmt.Errorf("loopback node %d: %w", i, err)
		}
		nodes, addrs = append(nodes, node), append(addrs, addr)
	}
	return nodes, addrs, nil
}

// tallyNet is a NetRMI deployment of Tally objects on in-process loopback
// nodes: the real transport, one process.
type tallyNet struct {
	nodes []*rmi.Node
	mw    *par.NetRMI
	class *par.Class
	objs  []any
}

// startTallyNet launches the nodes, dials them with the binary codec over
// three streams, and exports the objects round-robin over the nodes.
func startTallyNet(rec *recorder, probe *servantProbe, nodes, objects int, corruptEvery int64, extra ...par.NetOption) (*tallyNet, error) {
	tn := &tallyNet{class: tallyClass(par.NewDomain(), nil)}
	var addrs []string
	var err error
	tn.nodes, addrs, err = launchNodes(nodes, func(dom *par.Domain) *par.Class { return tallyClass(dom, probe) })
	if err != nil {
		return nil, err
	}
	opts := append([]par.NetOption{par.WithCodec(rmi.BinaryCodec()), par.WithStreams(3)}, extra...)
	id := rec.begin("netrmi.DialNet", 0, 0)
	tn.mw, err = par.DialNet(par.NetAddressTable(addrs...), opts...)
	rec.end(id)
	if err != nil {
		tn.close()
		return nil, err
	}
	for i := 0; i < objects; i++ {
		if _, err := tn.export(rec, int64(i), exec.NodeID(i%nodes), corruptEvery); err != nil {
			tn.close()
			return nil, err
		}
	}
	return tn, nil
}

func (tn *tallyNet) export(rec *recorder, index int64, node exec.NodeID, corruptEvery int64) (any, error) {
	id := rec.begin("netrmi.ExportNew", 0, 0)
	obj, err := tn.mw.ExportNew(exec.Real(), fmt.Sprintf("tally%d", index), node, tn.class,
		[]any{index, corruptEvery}, nil)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	tn.objs = append(tn.objs, obj)
	return obj, nil
}

func (tn *tallyNet) close() {
	if tn.mw != nil {
		tn.mw.Close()
	}
	for _, n := range tn.nodes {
		n.Close()
	}
}
