// Package imagepipe demonstrates reuse of the pipeline protocol aspect on a
// different application (the paper's claim: "moving from a parallel
// application to another using the same parallelisation strategy is
// performed by copying the parallelisation aspects and updating these
// modules"). A stream of image frames passes through a chain of filter
// stages — blur, sharpen, threshold — each stage an instance of the same
// sequential core class.
package imagepipe

import (
	"fmt"
	"sync"
	"time"

	"aspectpar/internal/aspect"
	"aspectpar/internal/exec"
	"aspectpar/internal/par"
	"aspectpar/internal/rmi"
)

// Frame is one grayscale scanline-major image, flattened.
type Frame []float64

// Stage is the sequential core class: one image filter. It is oblivious of
// pipelining, concurrency and distribution. For the resident streaming
// service the terminal stage also carries the stream's one dedupe layer: an
// exactly-once completion ledger the service reads with AwaitDone.
type Stage struct {
	kind string
	last bool // terminal stage of a streaming chain: records completions

	mu  sync.Mutex
	out []Frame
	ops int64

	// Terminal stage only. The ledger is an append-only sequence: entry k
	// (counting from 1) is doneIDs[k-1-base]. A reader acknowledges a prefix
	// by passing its cursor back, and only acknowledged entries are dropped,
	// so a read whose reply was lost is simply repeated.
	recorded   idSet   // ids ever appended to the ledger
	inc        int64   // this ledger's incarnation stamp, never 0
	base       int64   // entries dropped from the front so far
	doneIDs    []int64 // unacknowledged completions, oldest first
	doneFrames []Frame
	appended   chan struct{}   // closed and replaced on every append
	stop       <-chan struct{} // the hosting node is shutting down (ParkUntil)
}

// idSet records int64 ids, each at most once, in memory bounded by how far
// out of order they arrive: every id below low is a member, and only the
// members at or above it are stored. A stream's ids are dense and increasing,
// so the stored part stays about one in-flight window wide.
type idSet struct {
	low   int64
	above map[int64]struct{}
}

// add inserts id and reports whether it was absent.
func (s *idSet) add(id int64) bool {
	if id < s.low {
		return false
	}
	if _, ok := s.above[id]; ok {
		return false
	}
	if s.above == nil {
		s.above = make(map[int64]struct{})
	}
	s.above[id] = struct{}{}
	for {
		if _, ok := s.above[s.low]; !ok {
			return true
		}
		delete(s.above, s.low)
		s.low++
	}
}

// NewStage builds a filter stage of the given kind: "blur", "sharpen" or
// "threshold".
func NewStage(kind string) (*Stage, error) {
	switch kind {
	case "blur", "sharpen", "threshold":
		return &Stage{kind: kind}, nil
	default:
		return nil, fmt.Errorf("imagepipe: unknown stage kind %q", kind)
	}
}

// markTerminal makes s the last stage of a streaming chain: it opens the
// completion ledger under a fresh incarnation stamp.
func (s *Stage) markTerminal() {
	s.last = true
	s.inc = rmi.MixIdentity(time.Now().UnixNano())
	s.appended = make(chan struct{})
}

// filter runs the stage's kernel on one frame. Callers hold s.mu.
func (s *Stage) filter(f Frame) Frame {
	out := make(Frame, len(f))
	switch s.kind {
	case "blur": // 3-tap box filter
		for i := range f {
			sum, n := f[i], 1.0
			if i > 0 {
				sum += f[i-1]
				n++
			}
			if i+1 < len(f) {
				sum += f[i+1]
				n++
			}
			out[i] = sum / n
			s.ops += 3
		}
	case "sharpen": // unsharp mask with the same 3-tap blur
		for i := range f {
			sum, n := f[i], 1.0
			if i > 0 {
				sum += f[i-1]
				n++
			}
			if i+1 < len(f) {
				sum += f[i+1]
				n++
			}
			out[i] = 2*f[i] - sum/n
			s.ops += 4
		}
	case "threshold":
		for i := range f {
			if f[i] >= 0.5 {
				out[i] = 1
			}
			s.ops += 1
		}
	}
	return out
}

// Apply filters one frame and returns the result; it also keeps the result
// so the terminal stage of a pipeline can be drained.
func (s *Stage) Apply(f Frame) Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.filter(f)
	s.out = append(s.out, out)
	return out
}

// Ingest is the streaming entry point: filter one identified frame and
// return (id, output) for the forward rule to carry to the next stage. A
// repeated id — a redelivered hop or an end-to-end retry — is filtered
// again; the filters are deterministic, so the recomputed frame is
// byte-identical, and the terminal stage appends an id to its ledger only
// the first time it sees it, so each id is delivered at most once.
func (s *Stage) Ingest(id int64, f Frame) (int64, Frame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.filter(f)
	if s.last && s.recorded.add(id) {
		s.doneIDs = append(s.doneIDs, id)
		s.doneFrames = append(s.doneFrames, out)
		close(s.appended)
		s.appended = make(chan struct{})
	}
	return id, out
}

// ParkUntil implements rmi.Parker: a parked AwaitDone returns once stop is
// closed, so the hosting node's shutdown does not wait the park out.
func (s *Stage) ParkUntil(stop <-chan struct{}) {
	s.mu.Lock()
	s.stop = stop
	s.mu.Unlock()
}

// AwaitDone reads the terminal stage's completion ledger. The caller passes
// the incarnation stamp and cursor of its previous read (zeros before the
// first); entries up to that cursor are acknowledged and dropped, and the
// reply is the ledger's stamp, the new cursor — the count of entries
// appended so far — and every unacknowledged (id, frame) pair. While there
// is none the call parks for up to wait, returning early on the next append
// or when the hosting node shuts down.
//
// The read is idempotent by construction: the same (inc, cursor) returns the
// same entries again, so a lost reply loses nothing, and each id is appended
// at most once over the stage's lifetime. A stamp that is not this ledger's
// — the caller last read an earlier incarnation of the stage, whose ledger
// died with it — acknowledges nothing; the caller sees the new stamp in the
// reply and restarts its cursor.
func (s *Stage) AwaitDone(inc, cursor int64, wait time.Duration) (int64, int64, []int64, []Frame) {
	s.mu.Lock()
	if n := cursor - s.base; inc == s.inc && n > 0 {
		n = min(n, int64(len(s.doneIDs)))
		s.doneIDs, s.doneFrames = s.doneIDs[n:], s.doneFrames[n:]
		s.base += n
	}
	if len(s.doneIDs) == 0 && wait > 0 {
		appended, stop := s.appended, s.stop
		s.mu.Unlock()
		t := time.NewTimer(wait)
		select {
		case <-appended:
		case <-stop:
		case <-t.C:
		}
		t.Stop()
		s.mu.Lock()
	}
	defer s.mu.Unlock()
	// Appends never write below len, and dropping only moves the start, so
	// the capped slices stay valid after the lock is released.
	n := len(s.doneIDs)
	return s.inc, s.base + int64(n), s.doneIDs[:n:n], s.doneFrames[:n:n]
}

// TakeDone is AwaitDone without the park: the polled form of the same read.
func (s *Stage) TakeDone(inc, cursor int64) (int64, int64, []int64, []Frame) {
	return s.AwaitDone(inc, cursor, 0)
}

// Results returns the frames this stage produced, in processing order.
func (s *Stage) Results() []Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Frame(nil), s.out...)
}

// TakeOps implements par.OpsReporter.
func (s *Stage) TakeOps() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ops := s.ops
	s.ops = 0
	return ops
}

// Kinds is the stage sequence of the application's pipeline.
var Kinds = []string{"blur", "sharpen", "threshold"}

// Sequential applies the full filter chain to each frame — the oracle the
// woven pipeline is checked against.
func Sequential(frames []Frame) []Frame {
	out := make([]Frame, len(frames))
	for i, f := range frames {
		cur := f
		for _, k := range Kinds {
			s, _ := NewStage(k)
			cur = s.Apply(cur)
		}
		out[i] = cur
	}
	return out
}

// DefineClass registers the image Stage on a domain. Both ends of a
// distributed deployment — the streaming Service driver and every rminode
// worker daemon — call this, so the class (and its named "stream" forward
// rule, which a peer-to-peer topology runs node-side) is defined
// identically in every process. The constructor takes the filter kind and,
// optionally, a terminal flag marking the stage that records completions.
func DefineClass(dom *par.Domain) *par.Class {
	return dom.Define("Stage",
		func(args []any) (any, error) {
			s, err := NewStage(args[0].(string))
			if err != nil {
				return nil, err
			}
			if len(args) > 1 && args[1].(bool) {
				s.markTerminal()
			}
			return s, nil
		},
		map[string]par.MethodBody{
			"Apply": func(target any, args []any) ([]any, error) {
				return []any{target.(*Stage).Apply(args[0].(Frame))}, nil
			},
			"Ingest": func(target any, args []any) ([]any, error) {
				id, out := target.(*Stage).Ingest(args[0].(int64), args[1].(Frame))
				return []any{id, out}, nil
			},
			"AwaitDone": func(target any, args []any) ([]any, error) {
				inc, cursor, ids, frames := target.(*Stage).AwaitDone(
					args[0].(int64), args[1].(int64), time.Duration(args[2].(int64)))
				return []any{inc, cursor, ids, frames}, nil
			},
			"TakeDone": func(target any, args []any) ([]any, error) {
				inc, cursor, ids, frames := target.(*Stage).TakeDone(args[0].(int64), args[1].(int64))
				return []any{inc, cursor, ids, frames}, nil
			},
			"Results": func(target any, args []any) ([]any, error) {
				return []any{target.(*Stage).Results()}, nil
			},
		}).Wire(Frame(nil), []Frame(nil), int64(0), []int64(nil)).
		// The streaming hop derivation as a NAMED rule, so the nodes' forward
		// lanes can run it without the driver: an Ingest result (id, frame)
		// becomes the next stage's Ingest arguments verbatim. Must stay
		// semantically identical to the Forward closure in Service's pipeline
		// config — the conformance tests pin the two paths byte-equal.
		DefineForward("stream", func(stage int, results, args []any) []any {
			if len(results) != 2 {
				return nil
			}
			return []any{results[0], results[1]}
		})
}

// Wiring is the woven application: core class + pipeline + concurrency.
type Wiring struct {
	Dom   *par.Domain
	Class *par.Class
	Pipe  *par.Pipeline
	Conc  *par.Concurrency
	Stack *par.Stack
}

// Build wires the batch image pipeline: a three-stage par.Pipeline whose
// stage arguments select the filter kind, splitting one batch call into
// per-frame calls and forwarding each stage's output frame to the next
// stage. (The resident streaming deployment of the same class is Service.)
func Build() *Wiring {
	w := &Wiring{Dom: par.NewDomain()}
	w.Class = DefineClass(w.Dom)
	w.Pipe = par.NewPipeline(par.PipelineConfig{
		Class:  w.Class,
		Method: "Apply",
		Stages: len(Kinds),
		StageArgs: func(orig []any, stage int) []any {
			return []any{Kinds[stage]}
		},
		Split: func(args []any) [][]any {
			frames := args[0].([]Frame)
			parts := make([][]any, len(frames))
			for i, f := range frames {
				parts[i] = []any{f}
			}
			return parts
		},
		Forward: func(stage int, results []any, args []any) []any {
			if len(results) == 0 || results[0] == nil {
				return nil
			}
			return []any{results[0].(Frame)}
		},
	})
	w.Conc = par.NewConcurrency(aspect.Call("Stage", "Apply"))
	w.Stack = par.NewStack(w.Dom, w.Pipe, w.Conc)
	return w
}

// Process runs a batch of frames through the woven pipeline on the given
// execution context and returns the terminal stage's outputs.
func (w *Wiring) Process(ctx exec.Context, frames []Frame) ([]Frame, error) {
	head, err := w.Class.New(ctx, "blur") // duplicated into the whole chain
	if err != nil {
		return nil, err
	}
	if _, err := w.Class.Call(ctx, head, "Apply", frames); err != nil {
		return nil, err
	}
	if err := w.Stack.Join(ctx); err != nil {
		return nil, err
	}
	stages := w.Pipe.Managed()
	last := stages[len(stages)-1]
	res, err := w.Class.CallWith(ctx, par.Internal|par.NoAsync, last, "Results")
	if err != nil {
		return nil, err
	}
	return res[0].([]Frame), nil
}
