package rmi

import (
	"encoding/gob"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aspectpar/internal/exec"
)

// This file is the process model of the real middleware: a Node is one
// worker process of a distributed run. It hosts class servers (the woven
// domain of that process, adapted through the Servant interface so this
// package does not depend on the weaving layer) and serves the creation
// protocol plus method dispatch for the objects a remote client placed here.
//
// The wire protocol is the ordinary RMI request/response stream: a Node is a
// Server whose registry holds, besides the placed objects, one reserved
// control binding (ControlName) that implements the creation protocol — the
// paper's "control message to the node, running build there, reply".

// ControlName is the reserved binding every Node serves its control verbs
// under; application objects cannot use it.
const ControlName = "!node"

// Control verbs served under ControlName.
const (
	// CtlExportNew creates an instance of a hosted class and binds it:
	// args[0] is the class name, args[1] the object name, args[2:] the
	// constructor arguments.
	CtlExportNew = "ExportNew"
	// CtlReset unbinds every placed object, returning the node to its
	// freshly started state so a daemon can serve successive runs. With a
	// non-empty string argument it unbinds only the objects whose names
	// carry that prefix — the namespaced form a pooled driver uses so its
	// reset cannot clobber other tenants' placements (and, unlike the full
	// reset, it does not rotate the session epoch, which would sever every
	// tenant's session at once).
	CtlReset = "Reset"
)

// Servant is the server side of one hosted class: it constructs instances
// and dispatches method calls on them. The weaving layer adapts a woven
// class to this interface (construction and dispatch re-enter the node's
// own domain), keeping this package free of weaving concerns.
type Servant interface {
	// New constructs one instance at this node from constructor arguments.
	New(ctx exec.Context, args []any) (any, error)
	// Invoke dispatches a method on an instance — the skeleton side of a
	// remote call.
	Invoke(ctx exec.Context, obj any, method string, args []any) ([]any, error)
	// WireTypes returns sample values of every concrete type the class
	// carries across the wire inside argument or result lists; the node
	// registers them with gob so both ends agree on the encoding.
	WireTypes() []any
}

// Parker is an optional capability of a hosted object whose methods may park:
// block at the node waiting for an event at the object (a long-poll read).
// The node hands such an object its server's Done channel right after
// construction; a parked method must return once it is closed, so Close and
// Abort are not held up by the wait.
type Parker interface {
	ParkUntil(done <-chan struct{})
}

// Node is a worker daemon of the real middleware: an RMI server hosting
// class servers and the creation protocol.
type Node struct {
	srv *Server
	ctx exec.Context

	mu      sync.Mutex
	classes map[string]Servant
	objects map[string]string // bound object name -> class name

	// pipes is the peer-to-peer pipeline forward lane (topology.go);
	// pipeActive short-circuits the per-dispatch hook while no topology is
	// installed, keeping the plain dispatch path untouched.
	pipes      *pipeRouter
	pipeActive atomic.Bool
}

func init() {
	// Constructor argument lists travel inside the control request's []any.
	gob.Register([]any(nil))
}

// NewNode returns a node whose servants run on ctx (typically exec.Real()),
// configured by opts — WithClock for the node's time source, WithRegistry and
// WithHeartbeat to join a pool.
func NewNode(ctx exec.Context, opts ...Option) *Node {
	n := &Node{
		srv:     NewServer(opts...),
		ctx:     ctx,
		classes: make(map[string]Servant),
		objects: make(map[string]string),
	}
	n.pipes = newPipeRouter(n)
	n.srv.Export(ControlName, n.control)
	return n
}

// Host registers a class server under its name and registers the class's
// wire types with gob. Hosting the same class name twice replaces the
// servant (a daemon reloading its application universe).
func (n *Node) Host(class string, s Servant) {
	for _, sample := range s.WireTypes() {
		RegisterType(sample)
	}
	n.mu.Lock()
	n.classes[class] = s
	n.mu.Unlock()
}

// Classes lists the hosted class names (diagnostics).
func (n *Node) Classes() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.classes))
	for c := range n.classes {
		out = append(out, c)
	}
	return out
}

// Listen starts serving on addr ("127.0.0.1:0" picks a free port) and
// returns the bound address.
func (n *Node) Listen(addr string) (string, error) {
	return n.srv.Listen(addr)
}

// Close shuts the node down gracefully, draining in-flight calls (see
// Server.Close).
func (n *Node) Close() {
	n.srv.Close()
	n.pipes.close()
}

// Abort force-closes the node without draining — the crash the failure-mode
// tests simulate (see Server.abort).
func (n *Node) Abort() {
	n.srv.abort()
	n.pipes.close()
}

// DropConns severs every live connection while the node keeps running — a
// transport blip rather than a crash (see Server.dropConns). Clients that
// Reconnect find the same session epoch and their placed objects intact.
func (n *Node) DropConns() { n.srv.dropConns() }

// Epoch returns the node's session epoch: the identity of this incarnation.
// A restarted node (even on the same address) has a different epoch, which
// is how a reconnecting client learns its placed objects are gone.
func (n *Node) Epoch() int64 { return n.srv.epoch.Load() }

// Requests returns the number of requests this node has served — the
// fault-injection harness's kill trigger.
func (n *Node) Requests() int64 { return n.srv.requests.Load() }

// WatchRequests returns a channel closed once the node has served at least
// req requests — the event-driven form of the kill trigger (see
// Server.watchRequests).
func (n *Node) WatchRequests(req int64) <-chan struct{} { return n.srv.watchRequests(req) }

// SetPartitioned severs or heals the node's network (see
// Server.setPartitioned).
func (n *Node) SetPartitioned(partitioned bool) { n.srv.setPartitioned(partitioned) }

// SetDispatchDelay injects per-request latency at this node (see
// Server.setDispatchDelay).
func (n *Node) SetDispatchDelay(d time.Duration) { n.srv.setDispatchDelay(d) }

// control serves the node's creation protocol.
func (n *Node) control(method string, args []any) ([]any, error) {
	switch method {
	case CtlExportNew:
		if len(args) < 2 {
			return nil, fmt.Errorf("rmi: %s wants (class, name, ctorArgs...), got %d args", CtlExportNew, len(args))
		}
		class, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("rmi: %s class argument is %T, want string", CtlExportNew, args[0])
		}
		name, ok := args[1].(string)
		if !ok {
			return nil, fmt.Errorf("rmi: %s name argument is %T, want string", CtlExportNew, args[1])
		}
		return nil, n.exportNew(class, name, args[2:])
	case CtlReset:
		if len(args) > 0 {
			if prefix, ok := args[0].(string); ok && prefix != "" {
				n.resetPrefix(prefix)
				return nil, nil
			}
		}
		n.reset()
		return nil, nil
	case CtlTopology:
		if len(args) != 5 {
			return nil, fmt.Errorf("rmi: %s wants (version, method, rule, names, addrs), got %d args", CtlTopology, len(args))
		}
		version, ok := args[0].(int64)
		if !ok {
			return nil, fmt.Errorf("rmi: %s version argument is %T, want int64", CtlTopology, args[0])
		}
		method, ok1 := args[1].(string)
		rule, ok2 := args[2].(string)
		names, ok3 := args[3].([]string)
		addrs, ok4 := args[4].([]string)
		if !ok1 || !ok2 || !ok3 || !ok4 {
			return nil, fmt.Errorf("rmi: %s with malformed arguments (%T, %T, %T, %T)", CtlTopology, args[1], args[2], args[3], args[4])
		}
		installed, err := n.pipes.install(version, method, rule, names, addrs)
		if err != nil {
			return nil, err
		}
		return []any{installed}, nil
	case CtlPipePoll:
		prefix := ""
		drain := false
		if len(args) > 0 {
			prefix, _ = args[0].(string)
		}
		if len(args) > 1 {
			drain, _ = args[1].(bool)
		}
		return []any{n.pipes.poll(prefix, drain)}, nil
	default:
		return nil, fmt.Errorf("rmi: unknown control verb %q", method)
	}
}

// exportNew runs the server side of the creation protocol: construct through
// the class server (the woven constructor body executes here, at the node)
// and bind the instance. Binding an already bound name fails — object names
// identify placements, so a silent rebind would orphan a live object.
func (n *Node) exportNew(class, name string, ctorArgs []any) error {
	if name == ControlName {
		return fmt.Errorf("rmi: object name %q is reserved", name)
	}
	n.mu.Lock()
	servant, ok := n.classes[class]
	if !ok {
		hosted := make([]string, 0, len(n.classes))
		for c := range n.classes {
			hosted = append(hosted, c)
		}
		n.mu.Unlock()
		return fmt.Errorf("rmi: node hosts no class %q (have %v)", class, hosted)
	}
	if owner, dup := n.objects[name]; dup {
		n.mu.Unlock()
		return fmt.Errorf("rmi: object %q already exported (class %s)", name, owner)
	}
	// Reserve the name before the (possibly slow) construction so a racing
	// duplicate export fails instead of building twice.
	n.objects[name] = class
	n.mu.Unlock()

	obj, err := n.construct(servant, class, ctorArgs)
	if err != nil {
		n.mu.Lock()
		delete(n.objects, name)
		n.mu.Unlock()
		return err
	}
	if p, ok := obj.(Parker); ok {
		p.ParkUntil(n.srv.done)
	}
	// Bind only if the reservation survived: a reset that ran during the
	// construction has already disowned this name, and binding anyway would
	// leave a live object the tracking map no longer knows about.
	n.mu.Lock()
	defer n.mu.Unlock()
	if owner, still := n.objects[name]; !still || owner != class {
		return fmt.Errorf("rmi: export of %q interrupted by a reset", name)
	}
	n.srv.Export(name, func(method string, args []any) ([]any, error) {
		res, err := servant.Invoke(n.ctx, obj, method, args)
		if err == nil && n.pipeActive.Load() {
			// Peer-to-peer pipeline hop: with a topology installed for this
			// object, the forward lane ships the derived next-hop arguments
			// directly to the successor's node — before this dispatch
			// acknowledges, so downstream window pressure propagates
			// upstream (see pipeRouter.afterDispatch).
			n.pipes.afterDispatch(name, servant, method, args, res)
		}
		return res, err
	})
	return nil
}

// construct runs the servant constructor, converting a panic (a skewed
// driver shipping arguments the hosted class cannot digest) into an error so
// the caller's reserve-then-release bookkeeping always releases — a panic
// escaping here would be recovered by the connection's dispatch guard with
// the name still reserved, wedging it until a reset.
func (n *Node) construct(servant Servant, class string, ctorArgs []any) (obj any, err error) {
	defer func() {
		if r := recover(); r != nil {
			obj, err = nil, fmt.Errorf("rmi: panic constructing %s: %v", class, r)
		}
	}()
	return servant.New(n.ctx, ctorArgs)
}

// resetPrefix unbinds only the placed objects whose names carry prefix —
// one tenant's namespace. The session epoch is left alone: other tenants
// share this node's sessions, and rotating would sever them all. The
// resetting driver guards its own replay race client-side (its fault
// layer's generation bump), which is the same guard the epoch rotation
// backs up in the whole-node case.
func (n *Node) resetPrefix(prefix string) {
	n.pipes.reset(prefix)
	n.mu.Lock()
	var names []string
	for name := range n.objects {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
			delete(n.objects, name)
		}
	}
	n.mu.Unlock()
	for _, name := range names {
		n.srv.unexport(name)
	}
}

// reset unbinds every placed object. It first rotates the session epoch, so
// a fault-tolerant client's replay racing the reset — a recovery goroutine
// re-exporting pre-reset objects while the driver starts a fresh run — is
// rejected as stale instead of resurrecting bindings the reset just removed.
func (n *Node) reset() {
	n.pipes.reset("")
	n.srv.rotateEpoch()
	n.mu.Lock()
	names := make([]string, 0, len(n.objects))
	for name := range n.objects {
		names = append(names, name)
	}
	n.objects = make(map[string]string)
	n.mu.Unlock()
	for _, name := range names {
		n.srv.unexport(name)
	}
}
