// Package mandel demonstrates reuse of the farm protocol aspect: a
// Mandelbrot renderer whose rows are farmed over workers — the classic
// "farm with separable dependencies" category from the paper's conclusion.
package mandel

import (
	"fmt"
	"sync"

	"aspectpar/internal/aspect"
	"aspectpar/internal/exec"
	"aspectpar/internal/par"
)

// Spec describes the rendered view.
type Spec struct {
	Width, Height int
	XMin, XMax    float64
	YMin, YMax    float64
	MaxIter       int
}

// DefaultSpec is the classic full-set view.
func DefaultSpec(w, h int) Spec {
	return Spec{Width: w, Height: h, XMin: -2, XMax: 1, YMin: -1.2, YMax: 1.2, MaxIter: 64}
}

// Worker is the sequential core class: it renders rows on demand and keeps
// them, oblivious of how work is partitioned.
type Worker struct {
	spec Spec

	mu   sync.Mutex
	rows [][]uint16 // indexed by row; nil where this worker rendered nothing
	ops  int64
}

// NewWorker builds a renderer for the spec.
func NewWorker(spec Spec) (*Worker, error) {
	if spec.Width <= 0 || spec.Height <= 0 || spec.MaxIter <= 0 {
		return nil, fmt.Errorf("mandel: invalid spec %+v", spec)
	}
	return &Worker{spec: spec, rows: make([][]uint16, spec.Height)}, nil
}

// Render computes the iteration counts of the given rows and stores them.
func (w *Worker) Render(rows []int32) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, r := range rows {
		w.rows[r] = w.renderRow(int(r))
	}
}

func (w *Worker) renderRow(row int) []uint16 {
	s := w.spec
	out := make([]uint16, s.Width)
	cy := s.YMin + (s.YMax-s.YMin)*float64(row)/float64(s.Height-1)
	for col := 0; col < s.Width; col++ {
		cx := s.XMin + (s.XMax-s.XMin)*float64(col)/float64(s.Width-1)
		var zx, zy float64
		iter := 0
		for ; iter < s.MaxIter; iter++ {
			zx, zy = zx*zx-zy*zy+cx, 2*zx*zy+cy
			w.ops += 5
			if zx*zx+zy*zy > 4 {
				break
			}
		}
		out[col] = uint16(iter)
	}
	return out
}

// Rows returns the rendered rows held by this worker.
func (w *Worker) Rows() map[int][]uint16 {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, counts := range w.rows {
		if counts != nil {
			n++
		}
	}
	out := make(map[int][]uint16, n)
	for r, counts := range w.rows {
		if counts != nil {
			out[r] = counts
		}
	}
	return out
}

// TakeOps implements par.OpsReporter.
func (w *Worker) TakeOps() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	ops := w.ops
	w.ops = 0
	return ops
}

// Sequential renders the full image with one worker — the oracle.
func Sequential(spec Spec) [][]uint16 {
	w, err := NewWorker(spec)
	if err != nil {
		panic(err)
	}
	img := make([][]uint16, spec.Height)
	for r := 0; r < spec.Height; r++ {
		img[r] = w.renderRow(r)
	}
	return img
}

// Schedule selects how the row farm assigns work.
type Schedule string

// The row-farm schedules.
const (
	// Static pre-assigns rows round-robin, one asynchronous call per row
	// (farm + concurrency, the paper's plain farm).
	Static Schedule = "static"
	// Dynamic self-schedules single rows through a shared queue.
	Dynamic Schedule = "dynamic"
	// Stealing is the work-stealing adaptive schedule with windowed
	// dispatch: rows start as one coarse contiguous band per worker and
	// split on demand — down to single rows — exactly where the set's
	// interior makes bands expensive. It is the default.
	Stealing Schedule = "stealing"
)

// Config tunes Build.
type Config struct {
	// Schedule selects the farm's scheduling discipline; the zero value is
	// Stealing.
	Schedule Schedule
	// Window is the latency-hiding dispatch window of the self-scheduling
	// schedules; 0 selects par.DefaultWindow, 1 the synchronous protocol.
	Window int
	// Distribute places the workers through the given middleware (e.g.
	// par.NewSimRMI over a simulated cluster); nil keeps them local.
	Distribute par.Middleware
	// Placement places distributed workers; nil puts them all on node 0.
	Placement par.Placement
	// NsPerOp meters the renderer's arithmetic at this virtual cost per
	// operation; 0 plugs no metering (real-backend runs).
	NsPerOp float64
}

// DefineClass registers MandelWorker on a domain. It is shared by Build and
// the rminode worker daemon, which hosts the class server-side for runs over
// the real middleware — both ends define it identically, so the declared
// wire types (the Spec constructor argument, row-index packs, rendered rows)
// agree across the connection.
func DefineClass(dom *par.Domain) *par.Class {
	return dom.Define("MandelWorker",
		func(args []any) (any, error) { return NewWorker(args[0].(Spec)) },
		map[string]par.MethodBody{
			"Render": func(target any, args []any) ([]any, error) {
				target.(*Worker).Render(args[0].([]int32))
				return nil, nil
			},
			"Rows": func(target any, args []any) ([]any, error) {
				return []any{target.(*Worker).Rows()}, nil
			},
		}).Wire(Spec{}, []int32(nil), map[int][]uint16(nil))
}

// Wiring is the woven application: core class + farm (+ concurrency,
// distribution, metering as configured).
type Wiring struct {
	Dom   *par.Domain
	Class *par.Class
	Farm  *par.Farm
	Conc  *par.Concurrency
	Dist  *par.Distribution
	Stack *par.Stack
}

// Build wires a row farm of the given size. Rows near the set's interior
// cost far more than exterior rows — the load imbalance the sieve workload
// lacks — so the adaptive schedules balance visibly better; the default
// stealing schedule additionally hides the middleware round trip behind a
// dispatch window when the farm is distributed.
func Build(spec Spec, workers int, cfg Config) *Wiring {
	w := &Wiring{Dom: par.NewDomain()}
	w.Class = DefineClass(w.Dom)
	sched := cfg.Schedule
	if sched == "" {
		sched = Stealing
	}
	fc := par.FarmConfig{
		Class:   w.Class,
		Method:  "Render",
		Workers: workers,
		Window:  cfg.Window,
	}
	switch sched {
	case Stealing:
		fc.Stealing = true
		// Enough coarse bands that each worker's deque keeps stealable
		// depth behind its dispatch window: a band in flight can no longer
		// be stolen, so fewer bands than window+1 per worker would lock the
		// initial assignment in.
		win := cfg.Window
		if win <= 0 {
			win = par.DefaultWindow
		}
		fc.Split = bandSplit(workers * (win + 2))
		// Row-index packs split with the default []int32 halver; MinSplit 1
		// lets demand refine a band down to single rows.
		fc.Steal = par.StealConfig{MinSplit: 1}
	default:
		fc.Dynamic = sched == Dynamic
		fc.Split = perRowSplit
	}
	w.Farm = par.NewFarm(fc)
	mods := []par.Module{w.Farm}
	if sched == Static {
		w.Conc = par.NewConcurrency(aspect.Call("MandelWorker", "Render"))
		mods = append(mods, w.Conc)
	}
	if cfg.Distribute != nil {
		placement := cfg.Placement
		if placement == nil {
			placement = par.SingleNode(0)
		}
		w.Dist = par.NewDistribution(w.Dom, aspect.New("MandelWorker"),
			aspect.Call("MandelWorker", "*"), cfg.Distribute, placement)
		mods = append(mods, w.Dist)
	}
	if cfg.NsPerOp > 0 {
		mods = append(mods, par.NewMetering(
			aspect.Or(aspect.Call("MandelWorker", "*"), aspect.New("MandelWorker")),
			cfg.NsPerOp, 0))
	}
	w.Stack = par.NewStack(w.Dom, mods...)
	return w
}

// perRowSplit makes one pack per row — the static and dynamic farms'
// finest-grained assignment.
func perRowSplit(args []any) [][]any {
	rows := args[0].([]int32)
	parts := make([][]any, 0, len(rows))
	for _, r := range rows {
		parts = append(parts, []any{[]int32{r}})
	}
	return parts
}

// bandSplit divides the rows into coarse contiguous bands; the stealing
// scheduler refines bands on demand.
func bandSplit(bands int) func(args []any) [][]any {
	return func(args []any) [][]any {
		rows := args[0].([]int32)
		if len(rows) == 0 {
			return nil
		}
		n := bands
		if n > len(rows) {
			n = len(rows)
		}
		parts := make([][]any, 0, n)
		start := 0
		for i := 0; i < n; i++ {
			end := (i + 1) * len(rows) / n
			if end <= start {
				continue
			}
			parts = append(parts, []any{rows[start:end:end]})
			start = end
		}
		return parts
	}
}

// Render runs the farm over all rows and assembles the image.
func (w *Wiring) Render(ctx exec.Context, spec Spec) ([][]uint16, error) {
	first, err := w.Class.New(ctx, spec)
	if err != nil {
		return nil, err
	}
	rows := make([]int32, spec.Height)
	for i := range rows {
		rows[i] = int32(i)
	}
	if _, err := w.Class.Call(ctx, first, "Render", rows); err != nil {
		return nil, err
	}
	if err := w.Stack.Join(ctx); err != nil {
		return nil, err
	}
	img := make([][]uint16, spec.Height)
	parts, err := w.Farm.Collect(ctx, "Rows")
	if err != nil {
		return nil, err
	}
	for _, p := range parts {
		for r, counts := range p.(map[int][]uint16) {
			img[r] = counts
		}
	}
	for r, row := range img {
		if row == nil {
			return nil, fmt.Errorf("mandel: row %d never rendered", r)
		}
	}
	return img, nil
}
