// Command rminode runs one worker node of the real-TCP middleware: an
// rmi.Node daemon hosting the application classes (PrimeFilter,
// MandelWorker, the imagepipe Stage) on its own domain, serving the
// creation protocol and method dispatch for objects a driving process
// places here through par.NetRMI — including the peer-to-peer stage
// topologies a pipeline driver installs (par.Topology).
//
// A minimal two-process sieve run:
//
//	terminal 1:  go run ./cmd/rminode -addr 127.0.0.1:9101
//	terminal 2:  go run ./cmd/sieve -variant FarmDRMI -filters 4 \
//	                 -max 1000000 -net 127.0.0.1:9101 -verify
//
// Start one rminode per worker machine (or port) and pass the full
// comma-separated address list to -net; address i plays cluster node i for
// the Placement policies. The daemon serves successive runs: the driver
// resets its bindings (par.NetRMI.Reset) before reusing object names.
//
// With -registry the node instead joins an elastic pool: it registers with
// the given poolctl registry at startup, heartbeats against it, and
// deregisters on graceful shutdown. Drivers started with sieve -pool discover
// the membership there — no -net list, and nodes may join or leave mid-run.
//
// The node speaks every built-in wire codec: each connection's first byte
// names the codec its client chose (sieve -codec), and the node answers that
// connection in it, so gob and binary drivers share one node.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"aspectpar/internal/apps/imagepipe"
	"aspectpar/internal/apps/mandel"
	"aspectpar/internal/exec"
	"aspectpar/internal/par"
	"aspectpar/internal/rmi"
	"aspectpar/internal/sieve"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:0", "TCP address to serve on (port 0 picks a free one)")
		registry = flag.String("registry", "", "elastic-pool registry address to register with on startup and heartbeat against; drivers started with sieve -pool discover this node there instead of needing it on their -net list")
		beat     = flag.Duration("heartbeat", 0, "with -registry: heartbeat interval (0 = the rmi default); the registry marks the node unhealthy after a few missed beats")
		drill    = flag.Int("drill-crash", 0, "crash-and-restart drill: abort the node after every N served requests and restart a fresh incarnation (new session epoch, empty registry) on the same address — pair with a fault-tolerant driver (sieve -faults) to watch it ride through (0 = off)")
	)
	flag.Parse()

	var nodeOpts []rmi.Option
	if *registry != "" {
		nodeOpts = append(nodeOpts, rmi.WithRegistry(*registry))
		if *beat > 0 {
			nodeOpts = append(nodeOpts, rmi.WithHeartbeat(*beat))
		}
	} else if *beat > 0 {
		fmt.Fprintln(os.Stderr, "rminode: -heartbeat requires -registry")
		os.Exit(2)
	}

	// Each hosted class lives in this process's own domain — the server side
	// of the distribution seam. No modules are plugged: placed objects run
	// their plain sequential bodies here, mutual exclusion is provided by the
	// per-connection serial dispatch of the transport.
	makeNode := func() *rmi.Node {
		dom := par.NewDomain()
		node := rmi.NewNode(exec.Real(), nodeOpts...)
		par.HostClass(node, sieve.DefineClass(dom))
		par.HostClass(node, mandel.DefineClass(dom))
		par.HostClass(node, imagepipe.DefineClass(dom))
		return node
	}

	var mu sync.Mutex
	node := makeNode()
	bound, err := node.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rminode:", err)
		os.Exit(1)
	}
	fmt.Printf("rminode: serving %s on %s\n", strings.Join(node.Classes(), ", "), bound)

	if *drill > 0 {
		// The drill loop: each incarnation serves its quota, crashes without
		// draining (the failure a fault-tolerant driver must survive), and a
		// fresh one — new epoch, everything placed here lost — takes over the
		// address. Exactly the cycle the chaos CI matrix scripts in-process.
		go func() {
			for {
				mu.Lock()
				cur := node
				mu.Unlock()
				if cur.Requests() < int64(*drill) {
					time.Sleep(2 * time.Millisecond)
					continue
				}
				fmt.Printf("rminode: drill — crashing after %d requests (epoch %d)\n", cur.Requests(), cur.Epoch())
				cur.Abort()
				fresh := makeNode()
				rebound := false
				var lastErr error
				for attempt := 0; attempt < 50; attempt++ {
					if _, lastErr = fresh.Listen(bound); lastErr == nil {
						rebound = true
						break
					}
					time.Sleep(5 * time.Millisecond)
				}
				if !rebound {
					// Another process grabbed the port (or the bind fails for
					// good): say so and stop the drill instead of silently
					// spinning while drivers burn their reconnect budgets.
					fmt.Fprintf(os.Stderr, "rminode: drill — cannot rebind %s, drill stopped: %v\n", bound, lastErr)
					return
				}
				fmt.Printf("rminode: drill — restarted on %s (epoch %d)\n", bound, fresh.Epoch())
				mu.Lock()
				node = fresh
				mu.Unlock()
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("rminode: shutting down (draining in-flight calls)")
	mu.Lock()
	cur := node
	mu.Unlock()
	cur.Close()
}
