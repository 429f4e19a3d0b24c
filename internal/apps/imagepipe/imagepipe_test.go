package imagepipe

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"aspectpar/internal/exec"
)

func frames(n, size int) []Frame {
	out := make([]Frame, n)
	for i := range out {
		f := make(Frame, size)
		for j := range f {
			f[j] = math.Abs(math.Sin(float64(i*size + j)))
		}
		out[i] = f
	}
	return out
}

func TestStageKinds(t *testing.T) {
	for _, k := range Kinds {
		if _, err := NewStage(k); err != nil {
			t.Errorf("NewStage(%q): %v", k, err)
		}
	}
	if _, err := NewStage("emboss"); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestStageOps(t *testing.T) {
	s, _ := NewStage("blur")
	s.Apply(make(Frame, 10))
	if s.TakeOps() == 0 {
		t.Error("Apply should count operations")
	}
}

func TestThreshold(t *testing.T) {
	s, _ := NewStage("threshold")
	out := s.Apply(Frame{0.1, 0.5, 0.9})
	if fmt.Sprint(out) != "[0 1 1]" {
		t.Errorf("threshold = %v", out)
	}
}

func TestWovenMatchesSequential(t *testing.T) {
	in := frames(8, 32)
	want := Sequential(in)

	w := Build()
	got, err := w.Process(exec.Real(), in)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("frames = %d, want %d", len(got), len(want))
	}
	// The pipeline is order-preserving per frame content but frames may
	// complete out of order; match as multisets via sums.
	sum := func(fs []Frame) float64 {
		total := 0.0
		for _, f := range fs {
			for _, v := range f {
				total += v
			}
		}
		return total
	}
	if math.Abs(sum(got)-sum(want)) > 1e-9 {
		t.Errorf("content mismatch: got sum %v, want %v", sum(got), sum(want))
	}
}

func TestPipelineStagesSeeAllFrames(t *testing.T) {
	in := frames(5, 16)
	w := Build()
	if _, err := w.Process(exec.Real(), in); err != nil {
		t.Fatal(err)
	}
	for i, s := range w.Pipe.Managed() {
		if got := len(s.(*Stage).Results()); got != 5 {
			t.Errorf("stage %d processed %d frames, want 5", i, got)
		}
	}
}

// Property: threshold output is always 0/1 valued regardless of input.
func TestThresholdProperty(t *testing.T) {
	f := func(vals []float64) bool {
		s, _ := NewStage("threshold")
		if len(vals) == 0 {
			vals = []float64{0}
		}
		for _, v := range s.Apply(Frame(vals)) {
			if v != 0 && v != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: blur preserves the frame sum on constant frames (box filter of
// a constant is the constant).
func TestBlurConstantProperty(t *testing.T) {
	f := func(raw uint8) bool {
		c := float64(raw) / 255
		s, _ := NewStage("blur")
		out := s.Apply(Frame{c, c, c, c, c})
		for _, v := range out {
			if math.Abs(v-c) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTerminalLedgerIsBoundedAndExactlyOnce streams 200,000 ids through a
// terminal stage, mostly in order, with some arriving late and some retried
// long after they were recorded. The ledger must hand each id out exactly
// once, and its record of what it has handed out must stay about a window
// wide instead of growing with the stream.
func TestTerminalLedgerIsBoundedAndExactlyOnce(t *testing.T) {
	s, _ := NewStage("threshold")
	s.markTerminal()
	const total = 200_000
	const bound = 4096 // ids the ledger may remember individually
	f := Frame{0.7}
	delivered := make([]bool, total)
	var inc, cursor int64
	read := func() {
		var ids []int64
		inc, cursor, ids, _ = s.TakeDone(inc, cursor)
		for _, id := range ids {
			if delivered[id] {
				t.Fatalf("id %d delivered twice", id)
			}
			delivered[id] = true
		}
	}
	var late []int64
	for id := int64(0); id < total; id++ {
		switch {
		case id%1000 == 7: // held back, arrives 500 ids late
			late = append(late, id)
		default:
			s.Ingest(id, f)
		}
		if len(late) > 0 && id == late[0]+500 {
			s.Ingest(late[0], f)
			late = late[1:]
		}
		if id%5000 == 4999 {
			s.Ingest(id-4500, f) // a retry of a frame recorded long ago
			s.Ingest(id, f)      // and of the one just recorded
		}
		if id%64 == 63 {
			read()
		}
		if n := len(s.recorded.above); n > bound {
			t.Fatalf("after id %d the ledger remembers %d ids individually, want at most %d", id, n, bound)
		}
	}
	for _, id := range late {
		s.Ingest(id, f)
	}
	read()
	read() // acknowledges the last batch
	for id, ok := range delivered {
		if !ok {
			t.Fatalf("id %d never delivered", id)
		}
	}
	if s.recorded.low != total || len(s.recorded.above) != 0 || len(s.doneIDs) != 0 {
		t.Errorf("settled ledger: low %d, %d above, %d unacknowledged", s.recorded.low, len(s.recorded.above), len(s.doneIDs))
	}
	// A repeated read — the reply to the previous one was lost — returns the
	// same entries; only a later cursor drops them.
	s.Ingest(total, f)
	_, end1, ids1, _ := s.TakeDone(inc, cursor)
	_, end2, ids2, _ := s.TakeDone(inc, cursor)
	if end1 != end2 || len(ids1) != 1 || len(ids2) != 1 || ids1[0] != ids2[0] {
		t.Errorf("repeated read: (%d, %v) then (%d, %v)", end1, ids1, end2, ids2)
	}
	// A reader that last saw another incarnation acknowledges nothing.
	if _, _, ids, _ := s.TakeDone(inc+1, end1); len(ids) != 1 {
		t.Errorf("foreign stamp acknowledged %d entries", 1-len(ids))
	}
	if _, _, ids, _ := s.TakeDone(inc, end1); len(ids) != 0 {
		t.Errorf("acknowledged entry returned again: %v", ids)
	}
}
