package par_test

import (
	"fmt"
	"time"

	"aspectpar/internal/aspect"
	"aspectpar/internal/exec"
	"aspectpar/internal/par"
	"aspectpar/internal/rmi"
)

// counterClass defines a minimal woven class for the examples: a counter
// whose Add mutates server-side state and returns the running sum.
func counterClass() *par.Class {
	return par.NewDomain().Define("Counter",
		func(args []any) (any, error) { return new(int64), nil },
		map[string]par.MethodBody{
			"Add": func(target any, args []any) ([]any, error) {
				sum := target.(*int64)
				*sum += args[0].(int64)
				return []any{*sum}, nil
			},
		}).Wire(int64(0))
}

// ExampleDialNet places an object on a real-TCP worker daemon and invokes
// it: the static-address-table deployment, every middleware knob fixed by
// options before the first connection.
func ExampleDialNet() {
	node := rmi.NewNode(exec.Real())
	defer node.Close()
	par.HostClass(node, counterClass())
	addr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		fmt.Println("listen:", err)
		return
	}

	mw, err := par.DialNet(par.NetAddressTable(addr))
	if err != nil {
		fmt.Println("dial:", err)
		return
	}
	defer mw.Close()

	ctx := exec.Real()
	obj, err := mw.ExportNew(ctx, "counter", 0, counterClass(), nil, nil)
	if err != nil {
		fmt.Println("export:", err)
		return
	}
	for i := int64(1); i <= 3; i++ {
		if _, err := mw.Invoke(ctx, obj, "Add", []any{i}, false); err != nil {
			fmt.Println("invoke:", err)
			return
		}
	}
	res, err := mw.Invoke(ctx, obj, "Add", []any{int64(4)}, false)
	if err != nil {
		fmt.Println("invoke:", err)
		return
	}
	fmt.Println("sum:", res[0])
	// Output: sum: 10
}

// ExampleDialPool discovers workers through a registry instead of a static
// table: daemons register themselves, the elastic pool reconciles
// membership, and placements follow joins and cordons.
func ExampleDialPool() {
	// A standalone registry (what cmd/poolctl serves).
	reg := rmi.NewServer()
	rmi.NewRegistry(nil, 0).Bind(reg)
	regAddr, err := reg.Listen("127.0.0.1:0")
	if err != nil {
		fmt.Println("registry:", err)
		return
	}
	defer reg.Close()

	// Two daemons that register with it (what rminode -registry does).
	for i := 0; i < 2; i++ {
		node := rmi.NewNode(exec.Real(),
			rmi.WithRegistry(regAddr), rmi.WithHeartbeat(10*time.Millisecond))
		defer node.Close()
		par.HostClass(node, counterClass())
		if _, err := node.Listen("127.0.0.1:0"); err != nil {
			fmt.Println("node:", err)
			return
		}
	}

	// Manual-mode pool (poll 0): Refresh runs one reconciliation pass.
	pool, err := par.DialPool(regAddr, par.WithPoolPoll(0))
	if err != nil {
		fmt.Println("pool:", err)
		return
	}
	defer pool.Close()
	if err := pool.Refresh(); err != nil {
		fmt.Println("refresh:", err)
		return
	}
	// pool.Middleware() and pool.Placement() then wire a Distribution
	// module exactly like the DialNet path.
	fmt.Println("members:", len(pool.Members()))

	// Output: members: 2
}

// ExamplePipeline_UseTopology ships a pipeline's stage chain to the nodes:
// the driver compiles a topology (stage → address → successor), installs
// it at export time, and every inner hop then runs peer-to-peer between the
// daemons — the driver only feeds stage 0 and polls for quiescence.
func ExamplePipeline_UseTopology() {
	// Both ends define the class identically, including the NAMED forward
	// rule the nodes run to derive each hop from a stage's results.
	define := func(dom *par.Domain) *par.Class {
		return dom.Define("Adder",
			func(args []any) (any, error) {
				inc := args[0].(int64)
				return &inc, nil
			},
			map[string]par.MethodBody{
				"Step": func(target any, args []any) ([]any, error) {
					return []any{args[0].(int64) + *target.(*int64)}, nil
				},
			}).Wire(int64(0)).
			DefineForward("carry", func(stage int, results, args []any) []any {
				return []any{results[0]}
			})
	}

	// Two worker daemons; three stages round-robin across them.
	var addrs []string
	for i := 0; i < 2; i++ {
		node := rmi.NewNode(exec.Real())
		defer node.Close()
		par.HostClass(node, define(par.NewDomain()))
		addr, err := node.Listen("127.0.0.1:0")
		if err != nil {
			fmt.Println("listen:", err)
			return
		}
		addrs = append(addrs, addr)
	}
	mw, err := par.DialNet(par.NetAddressTable(addrs...))
	if err != nil {
		fmt.Println("dial:", err)
		return
	}
	defer mw.Close()

	dom := par.NewDomain()
	class := define(dom)
	incs := []int64{1, 2, 3} // the chain adds 6 to every value
	pipe := par.NewPipeline(par.PipelineConfig{
		Class:  class,
		Method: "Step",
		Stages: len(incs),
		StageArgs: func(orig []any, stage int) []any {
			return []any{incs[stage]}
		},
		Split: func(args []any) [][]any {
			values := args[0].([]int64)
			parts := make([][]any, len(values))
			for i, v := range values {
				parts[i] = []any{v}
			}
			return parts
		},
		Forward: func(stage int, results []any, args []any) []any {
			return []any{results[0]}
		},
		ForwardRule: "carry",
	})
	dist := par.NewDistribution(dom,
		aspect.New("Adder"), aspect.Call("Adder", "*"),
		mw, par.RoundRobin(0, mw.Nodes()))
	if err := pipe.UseTopology(mw); err != nil {
		fmt.Println("topology:", err)
		return
	}
	stack := par.NewStack(dom, pipe, dist)

	ctx := exec.Real()
	head, err := class.New(ctx, int64(0)) // duplicated into the stage chain
	if err != nil {
		fmt.Println("new:", err)
		return
	}
	if _, err := class.Call(ctx, head, "Step", []int64{10, 20, 30}); err != nil {
		fmt.Println("call:", err)
		return
	}
	// Join pumps the topology control plane until the stream is quiescent:
	// every hop acked node-side, no strands outstanding.
	if err := stack.Join(ctx); err != nil {
		fmt.Println("join:", err)
		return
	}
	stats := mw.TopologyStats()
	fmt.Println("peer hops:", stats.PeerForwards, "stranded:", stats.Stranded)
	// Output: peer hops: 6 stranded: 0
}
