package sieve

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestReferenceSmall(t *testing.T) {
	got := fmt.Sprint(Reference(30))
	want := "[2 3 5 7 11 13 17 19 23 29]"
	if got != want {
		t.Errorf("Reference(30) = %s, want %s", got, want)
	}
	if Reference(1) != nil {
		t.Error("Reference(1) should be empty")
	}
	if got := len(Reference(10_000)); got != 1229 {
		t.Errorf("π(10000) = %d, want 1229", got)
	}
}

func TestNewPrimeFilterSeeds(t *testing.T) {
	f, err := NewPrimeFilter(2, 31)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(f.Seeds()); got != "[2 3 5 7 11 13 17 19 23 29 31]" {
		t.Errorf("seeds = %s", got)
	}
	if f.TakeOps() == 0 {
		t.Error("constructor should count operations")
	}
	if f.TakeOps() != 0 {
		t.Error("TakeOps must reset the counter")
	}
	lo, hi := f.Range()
	if lo != 2 || hi != 31 {
		t.Errorf("Range = %d,%d", lo, hi)
	}
}

func TestNewPrimeFilterSubrange(t *testing.T) {
	f, err := NewPrimeFilter(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(f.Seeds()); got != "[11 13 17 19]" {
		t.Errorf("seeds = %s", got)
	}
}

func TestNewPrimeFilterInvalid(t *testing.T) {
	if _, err := NewPrimeFilter(1, 10); err == nil {
		t.Error("pmin < 2 should fail")
	}
	if _, err := NewPrimeFilter(10, 9); err == nil {
		t.Error("pmax < pmin should fail")
	}
}

func TestFilterRemovesMultiples(t *testing.T) {
	f, _ := NewPrimeFilter(2, 10) // seeds 2,3,5,7
	in := []int32{101, 102, 103, 105, 107, 109, 111, 113, 115, 119, 121}
	out := f.Filter(in)
	// 102=2·51, 105=3·35, 111=3·37, 115=5·23, 119=7·17 removed;
	// 121=11² survives (11 is not a seed of this filter).
	want := "[101 103 107 109 113 121]"
	if got := fmt.Sprint(out); got != want {
		t.Errorf("survivors = %s, want %s", got, want)
	}
	if got := fmt.Sprint(f.Accepted()); got != want {
		t.Errorf("accepted = %s, want %s", got, want)
	}
	if f.TakeOps() == 0 {
		t.Error("Filter should count operations")
	}
}

func TestFilterAccumulatesAccepted(t *testing.T) {
	f, _ := NewPrimeFilter(2, 10)
	f.Filter([]int32{101})
	f.Filter([]int32{103})
	if got := fmt.Sprint(f.Accepted()); got != "[101 103]" {
		t.Errorf("accepted = %s", got)
	}
}

// --- The kernel's contract: survivors and operation counts of the naive loop.

// referenceFilter is PrimeFilter.Filter's loop as it stood before the
// division was strength-reduced away, verbatim — the oracle for what the
// kernel keeps and for what it counts.
func referenceFilter(seeds, nums []int32) (out []int32, ops int64) {
	out = make([]int32, 0, len(nums))
	for _, n := range nums {
		keep := true
		for _, p := range seeds {
			ops++
			if int64(p)*int64(p) > int64(n) {
				break // no seed ≤ √n divides n
			}
			if n%p == 0 {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, n)
		}
	}
	return out, ops
}

// kernelRanges are the seed ranges the differential test and the fuzz target
// share: the farm's, the three smallest, a mid-pipeline stage, every seed
// whose square fits an int32, and one with no seed at all.
var kernelRanges = [][2]int32{{2, 3162}, {2, 2}, {3, 3}, {2, 10}, {790, 1800}, {2, 46340}, {24, 28}}

// checkAgainstReference runs packs through a fresh copy of f and compares
// each pack's survivors and operation count with the naive loop's.
func checkAgainstReference(t *testing.T, f *PrimeFilter, packs ...[]int32) {
	t.Helper()
	g := PrimeFilter{pmin: f.pmin, pmax: f.pmax, seeds: f.seeds, magic: f.magic}
	var accepted []int32
	for i, nums := range packs {
		want, wantOps := referenceFilter(g.seeds, nums)
		got, gotOps := g.Filter(nums), g.TakeOps()
		accepted = append(accepted, want...)
		if !slices.Equal(got, want) {
			t.Fatalf("[%d,%d] pack %d: survivors differ from trial division (%d kept, want %d)", g.pmin, g.pmax, i, len(got), len(want))
		}
		if gotOps != wantOps {
			t.Fatalf("[%d,%d] pack %d: %d ops, trial division counts %d", g.pmin, g.pmax, i, gotOps, wantOps)
		}
	}
	if !slices.Equal(g.Accepted(), accepted) {
		t.Fatalf("[%d,%d]: accepted is not the concatenation of the survivors", g.pmin, g.pmax)
	}
}

func TestFilterMatchesTrialDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, r := range kernelRanges {
		f, err := NewPrimeFilter(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		edge := []int32{math.MinInt32, math.MinInt32 + 1, -9, -2, -1, 0, 1, 2, 3, 4, 6, 8, 9, 10, 1 << 30, math.MaxInt32 - 1, math.MaxInt32}
		if seeds := f.seeds; len(seeds) > 0 {
			for _, p := range []int32{seeds[0], seeds[len(seeds)/2], seeds[len(seeds)-1]} {
				edge = append(edge, p-1, p, p+1, p*p-1, p*p, p*p+1, 2*p, 3*p)
			}
		}
		for _, limit := range []int32{100, r[1] * r[1], math.MaxInt32} {
			for i := 0; i < 4000; i++ {
				edge = append(edge, rng.Int31n(limit))
			}
		}
		ascending := slices.Clone(edge)
		slices.Sort(ascending)
		descending := slices.Clone(ascending)
		slices.Reverse(descending)
		checkAgainstReference(t, f, ascending, descending, edge,
			Candidates(r[1], min(r[1]*r[1], 2_000_000)),
			Candidates(math.MaxInt32-40_000, math.MaxInt32), ascending)

		// The shape every product pack has — strictly ascending odd numbers
		// ≥ 3 — which Filter sieves instead of trial-dividing.
		var shaped [][]int32
		for _, limit := range []int32{100, r[1] * r[1], math.MaxInt32} {
			pack := make([]int32, 4000)
			for i := range pack {
				pack[i] = rng.Int31n(limit) | 1
			}
			shaped = append(shaped, oddAscending(pack))
		}
		// Packs spanning 2·sieveWindow − 2, which fills one window exactly,
		// and 2 or 4 more, which spill one or two slots into the next —
		// contiguous and sparse, low and high in the int32 range.
		for _, from := range []int32{r[1] &^ 1, 1_000_000, math.MaxInt32 - 3*sieveWindow - 1} {
			for _, span := range []int32{2*sieveWindow - 2, 2 * sieveWindow, 2*sieveWindow + 2} {
				dense := Candidates(from, from+span+1)
				shaped = append(shaped, dense, oddAscending(slices.DeleteFunc(slices.Clone(dense), func(n int32) bool { return n%3 == 0 })))
			}
		}
		shaped = append(shaped,
			[]int32{3}, []int32{9}, []int32{math.MaxInt32},
			Candidates(2, 100_000),
			// A shaped prefix followed by input of any shape: the sieve stops
			// where the shape breaks and trial division takes the rest.
			append(Candidates(r[1], r[1]+3000), edge...))
		// Contiguous runs, which take the dense scan, broken two ways: one
		// element dropped mid-window, and a run that starts mid-window after
		// a sparse prefix.
		run := Candidates(r[1], r[1]+4*sieveWindow)
		shaped = append(shaped, slices.Delete(slices.Clone(run), sieveWindow/2, sieveWindow/2+1))
		var prefix []int32
		for n := r[1] | 1; len(prefix) < 2*sparseRun; n += 14 {
			prefix = append(prefix, n)
		}
		from := prefix[len(prefix)-1]
		shaped = append(shaped, append(prefix, Candidates(from, from+3*sieveWindow)...))
		if seeds := f.seeds; len(seeds) > 0 {
			p := seeds[len(seeds)-1]
			shaped = append(shaped, []int32{p}, []int32{p * p}, []int32{p*p + 2})
			// Dense windows across the last seeds' squares, where the
			// survivors' operation count steps up mid-window.
			for _, p := range seeds[max(len(seeds)-2, 0):] {
				shaped = append(shaped, Candidates(max(p*p-sieveWindow, 2), p*p+sieveWindow))
			}
		}
		checkAgainstReference(t, f, shaped...)
	}

	// The inputs of a pipeline's inner and last stages: survivors of the
	// stages before them, as the paper's four-filter pipeline forwards its
	// first and last packs.
	packs := [][]int32{Candidates(3162, 203_162), Candidates(9_800_000, 10_000_000)}
	for i, r := range stageRanges(3162, 4) {
		f, err := NewPrimeFilter(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			checkAgainstReference(t, f, packs...)
		}
		for j := range packs {
			packs[j], _ = referenceFilter(f.seeds, packs[j])
		}
	}
}

// oddAscending returns the odd numbers ≥ 3 of pack, sorted and deduplicated.
func oddAscending(pack []int32) []int32 {
	pack = slices.DeleteFunc(slices.Clone(pack), func(n int32) bool { return n < 3 || n%2 == 0 })
	slices.Sort(pack)
	return slices.Compact(pack)
}

// TestFilterOpsPinned holds the operation count — what the metering aspect
// prices virtual time from — to the value the naive loop produced for the
// farm filter of a 2,000,000 sieve.
func TestFilterOpsPinned(t *testing.T) {
	f, _ := NewPrimeFilter(2, 1414)
	if got := f.TakeOps(); got != 4478 {
		t.Errorf("constructor ops = %d, want 4478", got)
	}
	survivors := f.Filter(Candidates(1414, 2_000_000))
	if got := f.TakeOps(); got != 33_462_766 {
		t.Errorf("filter ops = %d, want 33462766", got)
	}
	if len(survivors) != 148_710 {
		t.Errorf("%d survivors, want 148710", len(survivors))
	}
}

func FuzzFilter(f *testing.F) {
	filters := make([]*PrimeFilter, len(kernelRanges))
	for i, r := range kernelRanges {
		filters[i], _ = NewPrimeFilter(r[0], r[1])
		f.Add(uint8(i), uint16(0), uint16(0), []byte("\x00\x00\x00\x00\xff\xff\xff\x7f\x00\x00\x00\x80\x09\x00\x00\x00"))
	}
	f.Add(uint8(len(kernelRanges)), uint16(46_300), uint16(100), binary.LittleEndian.AppendUint32(nil, 46_337*46_337))
	f.Fuzz(func(t *testing.T, which uint8, pmin, width uint16, data []byte) {
		var pf *PrimeFilter
		if i := int(which) % (len(filters) + 1); i < len(filters) {
			pf = filters[i]
		} else {
			lo := int32(pmin) + 2
			pf, _ = NewPrimeFilter(lo, lo+int32(width%512))
		}
		nums := make([]int32, len(data)/4)
		for i := range nums {
			nums[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
		}
		// Raw bytes are almost never a shaped pack; their odd, sorted,
		// deduplicated copy always is. A contiguous run from its first value,
		// with element width removed, crosses from the dense scan to the
		// element-by-element one wherever width falls.
		shaped := oddAscending(nums)
		packs := [][]int32{nums[:len(nums)/2], nums[len(nums)/2:], shaped}
		if len(shaped) > 0 {
			from := shaped[0] - 1
			run := Candidates(from, int32(min(int64(from)+3*sieveWindow, math.MaxInt32)))
			if int(width) < len(run) {
				run = slices.Delete(run, int(width), int(width)+1)
			}
			packs = append(packs, run)
		}
		checkAgainstReference(t, pf, packs...)
	})
}

// A returned pack must not share memory with the filter's accumulated
// survivors: Restore rewrites those in place while a reply holding the pack
// may still be encoding.
func TestFilterResultSurvivesRestore(t *testing.T) {
	f, _ := NewPrimeFilter(2, 10)
	first := f.Filter([]int32{101, 102, 103, 107})
	want := slices.Clone(first)
	f.Restore([]int32{11, 13})
	f.Filter([]int32{17, 19, 23, 29})
	if !slices.Equal(first, want) {
		t.Errorf("first pack became %v after Restore + Filter, want %v", first, want)
	}
	if got := fmt.Sprint(f.Accepted()); got != "[11 13 17 19 23 29]" {
		t.Errorf("accepted = %s", got)
	}
}

func TestFilterAllocs(t *testing.T) {
	f, _ := NewPrimeFilter(2, 3162)
	// A short pack, many runs: the count is the whole process's, and earlier
	// tests of this package leave timers behind that allocate now and then.
	pack := Candidates(3162, 7162)
	f.Filter(pack) // accepted has the capacity from here on
	allocs := testing.AllocsPerRun(200, func() {
		f.Restore(nil)
		f.Filter(pack)
	})
	t.Logf("%.2f allocations per Filter call", allocs)
	if allocs > 2 {
		t.Errorf("%.2f allocations per Filter call, budget 2", allocs)
	}
}

// splitPacks must not remember a short list: the clamp to len(data) is per
// call, not a write to the wiring's captured pack count.
func TestSplitPacksClampIsPerCall(t *testing.T) {
	split := splitPacks(50, 1, 4)
	if got := len(split([]any{[]int32{3, 5, 7}})); got != 3 {
		t.Fatalf("3 candidates split into %d packs, want 3", got)
	}
	if got := len(split([]any{Candidates(2, 2002)})); got != 50 {
		t.Errorf("1000 candidates split into %d packs after a short list, want 50", got)
	}
}

// The woven runs pass the candidates as an Odds range and the partition
// modules build each pack as its call is issued, so the range must cut, and
// the steal scheduler halve, into exactly the packs the built list gives:
// splitPacks over CandidateOdds builds, element for element, the packs
// splitPacks over Candidates returns, and Odds.Halve builds the halves par
// cuts a built pack into, at len/2.
func TestSplitPacksOverOddsBuildsTheListPacks(t *testing.T) {
	type span struct{ from, max int32 }
	var spans []span
	for _, max := range []int32{0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 24, 25, 26, 27, 48, 49, 50, 99, 100, 101, 1000, 4099, 99_999, 1_000_003} {
		spans = append(spans, span{ISqrt(max), max})
	}
	spans = append(spans, span{-5, 9}, span{0, 7}, span{math.MaxInt32 - 2, math.MaxInt32}, span{math.MaxInt32 - 1001, math.MaxInt32})
	for _, sp := range spans {
		odds, list := CandidateOdds(sp.from, sp.max), Candidates(sp.from, sp.max)
		if built := odds.Build(); !slices.Equal(built, list) || (built == nil) != (list == nil) || odds.Len() != len(list) {
			t.Fatalf("CandidateOdds(%d, %d) = %+v builds %v, Candidates gives %v", sp.from, sp.max, odds, built, list)
		}
		for _, packs := range []int{1, 8, 50, len(list) + 3} {
			for _, skew := range []float64{1, 4} {
				cell := fmt.Sprintf("(%d, %d] in %d packs, skew %g", sp.from, sp.max, packs, skew)
				lazy := splitPacks(packs, skew, 4)([]any{odds})
				want := splitPacks(packs, skew, 4)([]any{list})
				if len(lazy) != len(want) {
					t.Fatalf("%s: %d packs from the range, %d from the list", cell, len(lazy), len(want))
				}
				for i := range lazy {
					pk, ok := lazy[i][0].(Odds)
					if len(lazy[i]) != 1 || !ok {
						t.Fatalf("%s: pack %d is %v, want one Odds", cell, i, lazy[i])
					}
					built := pk.Build()
					if !slices.Equal(built, want[i][0].([]int32)) {
						t.Fatalf("%s: pack %d builds %v, want %v", cell, i, built, want[i][0])
					}
					if pk.Len() < 2 {
						continue
					}
					a, b := pk.Halve()
					mid := len(built) / 2
					if !slices.Equal(a.Build(), built[:mid]) || !slices.Equal(b.Build(), built[mid:]) {
						t.Fatalf("%s: pack %d halves into %v and %v, want %v and %v", cell, i, a.Build(), b.Build(), built[:mid], built[mid:])
					}
				}
			}
		}
	}
}

// benchmarkFilter feeds input to the filter in 400 KB packs, as the farm and
// pipeline wirings do, and reports the kernel's cost per candidate.
func benchmarkFilter(b *testing.B, f *PrimeFilter, input []int32) {
	const pack = 100_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Restore(nil)
		for at := 0; at < len(input); at += pack {
			f.Filter(input[at:min(at+pack, len(input))])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(input)), "ns/candidate")
}

// BenchmarkFilterKernel is the farm worker's job at the paper's scale: every
// seed up to √Max against every odd candidate in (√Max, Max].
func BenchmarkFilterKernel(b *testing.B) {
	max := PaperParams(1).Max
	f, _ := NewPrimeFilter(2, ISqrt(max))
	benchmarkFilter(b, f, Candidates(ISqrt(max), max))
}

// BenchmarkFilterKernelMidStage is the second of four pipeline elements: its
// slice of the seeds against what the first element let through.
func BenchmarkFilterKernelMidStage(b *testing.B) {
	max := PaperParams(1).Max
	ranges := stageRanges(ISqrt(max), 4)
	first, _ := NewPrimeFilter(ranges[0][0], ranges[0][1])
	f, _ := NewPrimeFilter(ranges[1][0], ranges[1][1])
	benchmarkFilter(b, f, first.Filter(Candidates(ISqrt(max), max)))
}

// candidatesSink keeps BenchmarkCandidates' result alive.
var candidatesSink []int32

// BenchmarkCandidates is what issuing one pack of the paper's headline run
// costs the driver before the call leaves: building one of its 50 packs of
// odd candidates in (√Max, Max] from its range.
func BenchmarkCandidates(b *testing.B) {
	p := PaperParams(1)
	pack := splitPacks(p.Packs, 1, 1)([]any{CandidateOdds(ISqrt(p.Max), p.Max)})[0][0].(Odds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		candidatesSink = pack.Build()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(candidatesSink)), "ns/candidate")
}

func TestISqrt(t *testing.T) {
	cases := map[int32]int32{0: 0, 1: 1, 3: 1, 4: 2, 8: 2, 9: 3, 10_000_000: 3162}
	for n, want := range cases {
		if got := ISqrt(n); got != want {
			t.Errorf("ISqrt(%d) = %d, want %d", n, got, want)
		}
	}
	f := func(n int32) bool {
		if n < 0 {
			n = -n
		}
		r := ISqrt(n)
		return int64(r)*int64(r) <= int64(n) && int64(r+1)*int64(r+1) > int64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCandidates(t *testing.T) {
	got := fmt.Sprint(Candidates(4, 15))
	if got != "[5 7 9 11 13 15]" {
		t.Errorf("Candidates(4,15) = %s", got)
	}
	got = fmt.Sprint(Candidates(5, 11))
	if got != "[7 9 11]" {
		t.Errorf("Candidates(5,11) = %s", got)
	}
	if Candidates(10, 10) != nil {
		t.Error("empty range should be nil")
	}
}

func TestChecksum(t *testing.T) {
	n, s := Checksum([]int32{2, 3, 5})
	if n != 3 || s != 10 {
		t.Errorf("Checksum = %d, %d", n, s)
	}
}

// Property: sequential filtering through the core class equals the
// Eratosthenes oracle, for any max.
func TestCoreMatchesReference(t *testing.T) {
	f := func(raw uint16) bool {
		max := int32(raw%5000) + 10
		sq := ISqrt(max)
		pf, err := NewPrimeFilter(2, sq)
		if err != nil {
			return false
		}
		primes := append(pf.Seeds(), pf.Filter(Candidates(sq, max))...)
		wantN, wantS := Checksum(Reference(max))
		gotN, gotS := Checksum(primes)
		return gotN == wantN && gotS == wantS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: stage ranges partition [2, sqrtMax] exactly: every seed prime
// belongs to exactly one range.
func TestStageRangesCoverSeeds(t *testing.T) {
	f := func(rawMax uint16, rawK uint8) bool {
		sqrtMax := int32(rawMax%1000) + 4
		k := int(rawK%16) + 1
		ranges := stageRanges(sqrtMax, k)
		if len(ranges) != k {
			return false
		}
		if ranges[0][0] != 2 || ranges[k-1][1] != sqrtMax {
			return false
		}
		seeds := Reference(sqrtMax)
		count := 0
		for _, p := range seeds {
			in := 0
			for _, r := range ranges {
				if p >= r[0] && p <= r[1] {
					in++
				}
			}
			if in != 1 {
				return false
			}
			count++
		}
		return count == len(seeds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// --- Variant correctness: every module combination computes the same primes.

func smallParams(filters int) Params {
	p := PaperParams(filters)
	p.Max = 200_000
	p.Packs = 10
	return p
}

func TestAllVariantsComputeTheSamePrimes(t *testing.T) {
	p := smallParams(4)
	wantN, wantS := Checksum(Reference(p.Max))
	for _, v := range append(Variants(), Seq, HandPipeRMI) {
		res, err := Run(v, p)
		if err != nil {
			t.Errorf("%s: %v", v, err)
			continue
		}
		if res.PrimeCount != wantN || res.PrimeSum != wantS {
			t.Errorf("%s: primes (%d, %d), want (%d, %d)", v, res.PrimeCount, res.PrimeSum, wantN, wantS)
		}
		if res.Elapsed <= 0 {
			t.Errorf("%s: elapsed = %v", v, res.Elapsed)
		}
	}
}

func TestVariantsAcrossFilterCounts(t *testing.T) {
	wantN, wantS := Checksum(Reference(int32(200_000)))
	for _, filters := range []int{1, 3, 7} {
		for _, v := range []Variant{PipeRMI, FarmMPP, FarmDRMI} {
			res, err := Run(v, smallParams(filters))
			if err != nil {
				t.Errorf("%s/%d: %v", v, filters, err)
				continue
			}
			if res.PrimeCount != wantN || res.PrimeSum != wantS {
				t.Errorf("%s/%d: wrong primes (%d, %d)", v, filters, res.PrimeCount, res.PrimeSum)
			}
		}
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	p := smallParams(5)
	for _, v := range []Variant{FarmRMI, PipeRMI, FarmMPP} {
		a, err := Run(v, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(v, p)
		if err != nil {
			t.Fatal(err)
		}
		if a.Elapsed != b.Elapsed || a.Comm != b.Comm {
			t.Errorf("%s: runs diverge: %v/%v vs %v/%v", v, a.Elapsed, a.Comm, b.Elapsed, b.Comm)
		}
	}
}

func TestFigure17Shape(t *testing.T) {
	// The qualitative claims of Figure 17 on a reduced workload.
	p := smallParams(6)

	seq, err := Run(Seq, p)
	if err != nil {
		t.Fatal(err)
	}
	threads, err := Run(FarmThreads, p)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := Run(PipeRMI, p)
	if err != nil {
		t.Fatal(err)
	}
	farmRMI, err := Run(FarmRMI, p)
	if err != nil {
		t.Fatal(err)
	}
	farmMPP, err := Run(FarmMPP, p)
	if err != nil {
		t.Fatal(err)
	}

	if threads.Elapsed >= seq.Elapsed {
		t.Errorf("FarmThreads (%v) should beat sequential (%v)", threads.Elapsed, seq.Elapsed)
	}
	if farmRMI.Elapsed >= pipe.Elapsed {
		t.Errorf("farm (%v) should beat pipeline (%v)", farmRMI.Elapsed, pipe.Elapsed)
	}
	if farmMPP.Elapsed >= farmRMI.Elapsed {
		t.Errorf("MPP (%v) should beat RMI (%v)", farmMPP.Elapsed, farmRMI.Elapsed)
	}

	// FarmThreads flattens beyond the 4 hardware contexts of one machine.
	t4, err := Run(FarmThreads, smallParams(4))
	if err != nil {
		t.Fatal(err)
	}
	t16, err := Run(FarmThreads, smallParams(16))
	if err != nil {
		t.Fatal(err)
	}
	improvement := float64(t4.Elapsed-t16.Elapsed) / float64(t4.Elapsed)
	if improvement > 0.25 {
		t.Errorf("FarmThreads should flatten after 4 filters: 4->%v, 16->%v", t4.Elapsed, t16.Elapsed)
	}
}

func TestFigure16Overhead(t *testing.T) {
	// Woven vs hand-coded pipeline RMI: the aspect overhead must stay well
	// under the paper's 5% bound.
	p := smallParams(6)
	hand, err := Run(HandPipeRMI, p)
	if err != nil {
		t.Fatal(err)
	}
	woven, err := Run(PipeRMI, p)
	if err != nil {
		t.Fatal(err)
	}
	if hand.PrimeCount != woven.PrimeCount || hand.PrimeSum != woven.PrimeSum {
		t.Errorf("baseline and woven disagree on primes")
	}
	gap := float64(woven.Elapsed-hand.Elapsed) / float64(hand.Elapsed)
	if gap < 0 {
		t.Errorf("woven (%v) faster than hand-coded (%v): cost model inconsistency", woven.Elapsed, hand.Elapsed)
	}
	if gap > 0.05 {
		t.Errorf("aspect overhead %.2f%% exceeds the paper's 5%% bound (hand %v, woven %v)",
			gap*100, hand.Elapsed, woven.Elapsed)
	}
}

func TestCommStatsPopulated(t *testing.T) {
	res, err := Run(FarmRMI, smallParams(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Messages == 0 || res.Comm.Bytes == 0 {
		t.Errorf("comm stats empty: %+v", res.Comm)
	}
	if res.Spawned == 0 {
		t.Error("concurrency should have spawned activities")
	}
	seq, err := Run(Seq, smallParams(1))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Comm.Messages != 0 || seq.Spawned != 0 {
		t.Errorf("sequential run should have no comm/spawns: %+v", seq)
	}
}

func TestTable1Rows(t *testing.T) {
	for _, v := range Variants() {
		pa, co, di := Table1Row(v)
		if pa == "?" || co == "?" || di == "?" {
			t.Errorf("Table1Row(%s) incomplete", v)
		}
	}
	if pa, _, _ := Table1Row(Variant("bogus")); pa != "?" {
		t.Error("unknown variant should render ?")
	}
}

func TestUnknownVariantFails(t *testing.T) {
	if _, err := Run(Variant("bogus"), smallParams(2)); err == nil {
		t.Error("unknown variant should fail")
	}
}
