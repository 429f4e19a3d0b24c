package simnet

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestLinkProfileDecomposition(t *testing.T) {
	l := LinkProfile{
		SendOverhead:   100 * time.Microsecond,
		SendPerByte:    time.Nanosecond,
		RecvOverhead:   50 * time.Microsecond,
		RecvPerByte:    2 * time.Nanosecond,
		Latency:        10 * time.Microsecond,
		BytesPerSecond: 1e6, // 1 MB/s -> 1 µs per byte
	}
	const n = 1000
	if got, want := l.SendCPU(n), 101*time.Microsecond; got != want {
		t.Errorf("SendCPU = %v, want %v", got, want)
	}
	if got, want := l.RecvCPU(n), 52*time.Microsecond; got != want {
		t.Errorf("RecvCPU = %v, want %v", got, want)
	}
	if got, want := l.WireTime(n), 1010*time.Microsecond; got != want {
		t.Errorf("WireTime = %v, want %v", got, want)
	}
	if got, want := l.Total(n), l.SendCPU(n)+l.WireTime(n)+l.RecvCPU(n); got != want {
		t.Errorf("Total = %v, want %v", got, want)
	}
}

func TestZeroBandwidthMeansInfinite(t *testing.T) {
	l := LinkProfile{Latency: time.Millisecond}
	if l.WireTime(1<<30) != time.Millisecond {
		t.Error("zero bandwidth should add no transfer time")
	}
}

func TestProfilesOrdering(t *testing.T) {
	// The property Figure 17 relies on: per-message MPP cost is well below
	// RMI cost, and both are dominated by wire time for large payloads.
	rmi, mpp := RMIProfile(), MPPProfile()
	const pack = 400_000 // 100,000 Java ints
	if mpp.Total(pack) >= rmi.Total(pack) {
		t.Errorf("MPP (%v) should beat RMI (%v) for a pack", mpp.Total(pack), rmi.Total(pack))
	}
	if mpp.Total(0) >= rmi.Total(0) {
		t.Errorf("MPP per-call overhead (%v) should beat RMI (%v)", mpp.Total(0), rmi.Total(0))
	}
	// Same wire underneath.
	if rmi.Latency != mpp.Latency || rmi.BytesPerSecond != mpp.BytesPerSecond {
		t.Error("RMI and MPP share the physical network")
	}
	// A 400 KB pack takes ~3.2 ms of wire time on GbE.
	wire := rmi.WireTime(pack) - rmi.Latency
	if wire < 3*time.Millisecond || wire > 4*time.Millisecond {
		t.Errorf("GbE transfer of 400KB = %v, want ~3.2ms", wire)
	}
}

func TestLoopbackProfile(t *testing.T) {
	lo := LoopbackProfile(RMIProfile())
	if lo.WireTime(400_000) >= RMIProfile().WireTime(400_000) {
		t.Error("loopback must be faster than the wire")
	}
	if lo.SendOverhead != RMIProfile().SendOverhead {
		t.Error("loopback keeps the middleware software overhead")
	}
}

func TestLinkProfileMonotonicInSize(t *testing.T) {
	f := func(a, b uint32) bool {
		small, big := int(a%1e6), int(a%1e6)+int(b%1e6)
		l := RMIProfile()
		return l.Total(small) <= l.Total(big)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGobSizerFastPaths(t *testing.T) {
	s := GobSizer{}
	if got := s.Size([]any{[]int32{1, 2, 3}}); got != 12 {
		t.Errorf("[]int32 size = %d, want 12", got)
	}
	if got := s.Size([]any{[]int64{1, 2}}); got != 16 {
		t.Errorf("[]int64 size = %d, want 16", got)
	}
	if got := s.Size([]any{[]float64{1}}); got != 8 {
		t.Errorf("[]float64 size = %d", got)
	}
	if got := s.Size([]any{[]byte("abcd")}); got != 4 {
		t.Errorf("[]byte size = %d", got)
	}
	if got := s.Size([]any{"hello"}); got != 5 {
		t.Errorf("string size = %d", got)
	}
	if got := s.Size([]any{nil}); got != 0 {
		t.Errorf("nil size = %d", got)
	}
	if got := s.Size([]any{int(1), int64(2), float64(3)}); got != 24 {
		t.Errorf("scalar sizes = %d, want 24", got)
	}
}

// TestGobSizerNamedArrays: a named array type is sized like its unnamed twin,
// by length × element width, never by encoding it.
func TestGobSizerNamedArrays(t *testing.T) {
	type frame []float64
	type pack []int32
	type blob []byte
	s := GobSizer{}
	for _, c := range []struct {
		v    any
		want int
	}{
		{frame(make([]float64, 256)), 2048},
		{frame(nil), 0},
		{pack{1, 2, 3}, 12},
		{blob("abcd"), 4},
		{[]uint16{1, 2, 3}, 6},
		{[]float32{1}, 4},
	} {
		if got := s.Size([]any{c.v}); got != c.want {
			t.Errorf("%T size = %d, want %d", c.v, got, c.want)
		}
	}
	args := []any{frame{1, 2, 3}}
	if avg := testing.AllocsPerRun(100, func() { s.Size(args) }); avg != 0 {
		t.Errorf("sizing a named array allocates %.1f objects: it is being encoded", avg)
	}
}

func TestGobSizerStructs(t *testing.T) {
	type payload struct{ A, B int64 }
	s := GobSizer{}
	n := s.Size([]any{payload{1, 2}})
	if n <= 0 {
		t.Errorf("struct size = %d, want > 0", n)
	}
	// Unencodable values fall back to a fixed estimate.
	if got := s.Size([]any{func() {}}); got != 64 {
		t.Errorf("unencodable size = %d, want 64", got)
	}
}

func TestFixedSizer(t *testing.T) {
	if FixedSizer(100).Size([]any{1, 2, 3}) != 100 {
		t.Error("FixedSizer should ignore args")
	}
}

func TestProfileString(t *testing.T) {
	if s := RMIProfile().String(); !strings.Contains(s, "link{") {
		t.Errorf("String = %q", s)
	}
}
