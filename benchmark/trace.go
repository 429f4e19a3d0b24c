package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer, or one execution of the
// benchmark's own servant body on an in-process node. Times are nanoseconds
// since the recorder started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder records
// nothing, so call sites are the same in traced and untraced runs and the
// untraced run pays two nil checks per call.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// owner maps an operation id to the driver-side span that issued it, so
	// that a servant body — which sees only the call's arguments — can name
	// its parent from the operation id alone.
	owner map[int64]int64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), owner: make(map[int64]int64)}
}

// begin opens a span. parent 0 with a non-zero op makes the span the owner
// of that operation.
func (r *recorder) begin(name string, parent, op int64) int64 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	if parent == 0 && op != 0 {
		r.owner[op] = id
	}
	r.mu.Unlock()
	return id
}

// beginOwned opens a span under whichever span owns op.
func (r *recorder) beginOwned(name string, op int64) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	parent := r.owner[op]
	r.mu.Unlock()
	return r.begin(name, parent, op)
}

func (r *recorder) end(id int64) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// layerTime is what the spans of one layer add up to.
type layerTime struct {
	Spans int
	Total time.Duration
	Self  time.Duration // total minus the part covered by child spans
}

// byLayer sums span time per layer — the span name up to its first dot. A
// span's self time is its duration minus the part of it its children cover.
func (r *recorder) byLayer() map[string]layerTime {
	out := make(map[string]layerTime)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	covered := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent == 0 || s.End == 0 {
			continue
		}
		p := r.spans[s.Parent-1]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			covered[s.Parent-1] += hi - lo
		}
	}
	for i, s := range r.spans {
		if s.End == 0 {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		lt := out[layer]
		lt.Spans++
		lt.Total += time.Duration(s.End - s.Start)
		lt.Self += time.Duration(max(0, s.End-s.Start-covered[i]))
		out[layer] = lt
	}
	return out
}

func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// write dumps every span as one JSON array.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
