// Package sieve is the paper's case study (Section 5): a prime number sieve
// whose core functionality is a plain sequential class, parallelised by
// plugging partition, concurrency and distribution modules.
//
// The core class mirrors the paper's PrimeFilter skeleton:
//
//	public class PrimeFilter {
//	    public PrimeFilter(int pmin, int pmax); // primes in [pmin,pmax]
//	    public void filter(int num[]);          // remove non-primes
//	}
//
// A filter holds the seed primes of its range and removes their multiples
// from candidate packs; survivors are numbers no seed prime of this filter
// divides. In the pipeline partition each element holds a slice of the seed
// range and survivors flow down the chain; in the farm partition every
// worker holds all the seeds and each pack is fully filtered by one worker.
//
// The class counts its arithmetic operations so the metering aspect can
// convert real work into virtual CPU time on the simulated testbed. An
// operation is one seed tried against one candidate, counted exactly as the
// naive trial-division loop would — every seed up to and including the one
// that divides the candidate or the first whose square exceeds it. How
// divisibility is decided is not part of the contract, so the wall-clock
// kernel can get faster while the virtual-time model it feeds stays where it
// is: Filter crosses off the seeds' multiples over windows of the pack's
// span, scans a window that holds every odd number of its span without a
// branch on the sieve, and falls back to trial division (multiplying by a
// precomputed reciprocal instead of dividing) where a pack is not the shape
// every product pack has.
package sieve

import (
	"fmt"
	"slices"

	"aspectpar/internal/par"
)

// PrimeFilter is the core class: sequential, oblivious of parallelism.
type PrimeFilter struct {
	pmin, pmax int32
	seeds      []int32   // primes in [pmin, pmax]
	accepted   [][]int32 // survivors this filter let through, a pack each
	kept       []int32   // scratch: the survivors of the pack being filtered
	ops        int64     // trial divisions since the last TakeOps

	// Per seed p, for trialDivide: magic = ⌊(2⁶⁴−1)/p⌋+1, for which p
	// divides a non-negative int32 n exactly when magic·n mod 2⁶⁴ < magic
	// (Lemire, Kaser & Kurz, "Faster remainder by direct computation").
	magic []uint64

	// window is crossOff's scratch: one slot per odd number of a window,
	// allocated on first use.
	window []uint16
}

// sieveWindow is the number of odd numbers one window of crossOff spans:
// 2¹⁴ uint16 slots, 32 KiB of scratch, which stays in a 48 KiB L1 data
// cache while the window is marked and scanned.
const sieveWindow = 1 << 14

// sparseRun is the fewest elements a window must hold to be sieved. Marking
// a window costs a division per seed whatever it holds, so below this
// crossOff trial-divides the window's first element instead.
const sparseRun = 64

// NewPrimeFilter calculates the seed primes in [pmin, pmax] by trial
// division (the paper's two-step filtering, step one).
func NewPrimeFilter(pmin, pmax int32) (*PrimeFilter, error) {
	if pmin < 2 || pmax < pmin {
		return nil, fmt.Errorf("sieve: invalid prime range [%d, %d]", pmin, pmax)
	}
	f := &PrimeFilter{pmin: pmin, pmax: pmax}
	for n := pmin; n <= pmax; n++ {
		if f.isPrime(n) {
			f.seeds = append(f.seeds, n)
			f.magic = append(f.magic, ^uint64(0)/uint64(n)+1)
		}
	}
	return f, nil
}

// isPrime is the constructor's trial division, counting operations.
func (f *PrimeFilter) isPrime(n int32) bool {
	if n < 2 {
		return false
	}
	if n%2 == 0 {
		f.ops++
		return n == 2
	}
	for d := int32(3); d*d <= n; d += 2 {
		f.ops++
		if n%d == 0 {
			return false
		}
	}
	return true
}

// Filter removes from nums every multiple of this filter's seed primes and
// returns the survivors (the paper's filter(int num[]); survivors rather
// than in-place mutation, because packs travel by value over middleware).
// Survivors are also accumulated in the filter, so the final pipeline
// element (or each farm worker) holds the primes it discovered.
//
// It keeps and counts what the naive loop does — for each seed in order:
// count one operation, stop if p² > n, reject if p divides n. A pack of
// strictly ascending odd numbers ≥ 3 (sub-ranges of Candidates, stolen
// halves of those, and survivors forwarded from either) is sieved by
// crossOff; whatever part of a pack breaks that shape is trial-divided.
func (f *PrimeFilter) Filter(nums []int32) []int32 {
	f.kept = f.kept[:0]
	done := f.crossOff(nums)
	f.trialDivide(nums[done:], 0)
	// Survivors are kept as the packs Filter returned, each sized exactly
	// and never written again, so a reply still encoding one is safe and
	// the accumulated survivors never regrow one long array.
	out := append(make([]int32, 0, len(f.kept)), f.kept...)
	f.accepted = append(f.accepted, out)
	return out
}

// crossOff filters the longest prefix of nums that is strictly ascending,
// odd and ≥ 3, and returns its length. It cuts the prefix into windows of
// sieveWindow odd numbers. In each, every seed p with p² ≤ the window's end
// stores its index + 1 at each odd multiple m ≥ max(p², base), largest seed
// first, so a slot ends up naming the smallest seed the naive loop would
// have stopped at, and the naive loop's operation count for that element.
// An unmarked element is a survivor; the loop would have run through the k
// seeds with p² ≤ n. Seeds above 46,340 have p² > MaxInt32 and never mark,
// so an index fits a uint16. Survivors, their order and ops are those of the
// naive loop, element by element.
//
// A window whose elements are every odd number from its base (every farm
// pack, stolen half and first pipeline stage's pack) goes through
// denseScan; from where that stops, the rest of the window is scanned
// element by element.
func (f *PrimeFilter) crossOff(nums []int32) int {
	if len(nums) == 0 || nums[0] < 3 {
		return 0
	}
	if f.window == nil {
		f.window = make([]uint16, sieveWindow)
	}
	seeds := f.seeds
	last := int64(nums[len(nums)-1])
	var ops int64
	k, kw := 0, 0 // seeds with p² ≤ the current element, ≤ the window's end
	prev := int64(1)
	j := 0
scan:
	for j < len(nums) {
		base := int64(nums[j])
		if base&1 == 0 || base <= prev {
			break
		}
		end := min(base+2*(sieveWindow-1), max(last, base))
		if j+sparseRun < len(nums) && int64(nums[j+sparseRun]) > end {
			k = f.trialDivide(nums[j:j+1], k)
			prev = base
			j++
			continue
		}
		slots := f.window[:(end-base)/2+1]
		clear(slots)
		for kw < len(seeds) && int64(seeds[kw])*int64(seeds[kw]) <= end {
			kw++
		}
		for s := kw - 1; s >= 0; s-- {
			p := int64(seeds[s])
			if p == 2 {
				continue // no odd multiples
			}
			q := (max(p*p, base) + p - 1) / p
			mark := uint16(s + 1)
			for at := ((q|1)*p - base) >> 1; at < int64(len(slots)); at += p {
				slots[at] = mark
			}
		}
		var took int
		took, k = f.denseScan(nums[j:], slots, k)
		j += took
		prev = int64(nums[j-1])
		for ; j < len(nums); j++ {
			n := int64(nums[j])
			if n > end {
				break
			}
			if n&1 == 0 || n <= prev {
				break scan
			}
			prev = n
			i := int(slots[(n-base)>>1]) - 1
			if i < 0 {
				for k < len(seeds) && int64(seeds[k])*int64(seeds[k]) <= n {
					k++
				}
				i = k
				f.kept = append(f.kept, int32(n))
			}
			ops += int64(min(i+1, len(seeds)))
		}
	}
	f.ops += ops
	return j
}

// denseScan takes the longest prefix of nums, up to one element per slot,
// that is every odd number from nums[0]: element t is nums[0] + 2t and
// reads slots[t]. It appends the survivors to kept, counts their operations
// and returns how many elements it took (at least one) and the seed cursor
// k, advanced past every seed whose square the prefix reached.
//
// The scan has no branch that depends on the sieve: every element is
// stored, and kept only by advancing the survivor count past it; a marked
// slot's value is added as its operations; the survivors' operations,
// min(k+1, len(seeds)) each, are added once per run of elements between
// two seeds' squares, where k is constant. Checking the progression costs
// one compare per element.
func (f *PrimeFilter) denseScan(nums []int32, slots []uint16, k int) (took, _ int) {
	seeds := f.seeds
	nums = nums[:min(len(nums), len(slots))]
	base := int64(nums[0])
	kept := slices.Grow(f.kept, len(nums))
	buf := kept[len(kept) : len(kept)+len(nums)]
	c := 0 // survivors stored in buf
	var ops int64
	for took < len(nums) {
		n := base + 2*int64(took)
		for k < len(seeds) && int64(seeds[k])*int64(seeds[k]) <= n {
			k++
		}
		stop := len(nums)
		if k < len(seeds) {
			// The first element at or past the next seed's square.
			stop = int(min(int64(stop), (int64(seeds[k])*int64(seeds[k])-base+1)/2))
		}
		run, marks := nums[took:stop], slots[took:stop]
		want := int32(n)
		c0, sum, i := c, 0, 0
		for ; i < len(run); i++ {
			if run[i] != want {
				break
			}
			v := uint32(marks[i])
			buf[c] = want
			c += int((v - 1) >> 31) // 1 when v == 0, the slot unmarked
			sum += int(v)
			want += 2
		}
		ops += int64(sum) + int64(c-c0)*int64(min(k+1, len(seeds)))
		took += i
		if i < len(run) {
			break
		}
	}
	f.kept = kept[:len(kept)+c]
	f.ops += ops
	return took, k
}

// trialDivide is the naive loop with the division strength-reduced away. k
// is the number of seeds with p² ≤ n, so only magic[:k] is tried; p divides
// n exactly when magic·n wraps to less than magic. k starts from the
// caller's cursor and is returned where it stopped.
func (f *PrimeFilter) trialDivide(nums []int32, k int) int {
	seeds := f.seeds
	var ops int64
	for _, n := range nums {
		// The cursor moves both ways so unsorted and negative input (k = 0)
		// stay correct.
		for k < len(seeds) && int64(seeds[k])*int64(seeds[k]) <= int64(n) {
			k++
		}
		for k > 0 && int64(seeds[k-1])*int64(seeds[k-1]) > int64(n) {
			k--
		}
		// The naive loop stops at seed i — a divisor, or at i = k the first
		// seed with p² > n — having counted it, unless it ran out of seeds.
		i := firstDivisor(f.magic[:k], uint64(n))
		ops += int64(min(i+1, len(seeds)))
		if i == k {
			f.kept = append(f.kept, n)
		}
	}
	f.ops += ops
	return k
}

// firstDivisor returns the index of the first seed that divides n, or
// len(magic) if none does: one multiply and one compare per seed, eight
// seeds per trip round the loop.
func firstDivisor(magic []uint64, n uint64) int {
	i := 0
	for ; i <= len(magic)-8; i += 8 {
		m := magic[i : i+8 : i+8]
		switch {
		case m[0]*n < m[0]:
			return i
		case m[1]*n < m[1]:
			return i + 1
		case m[2]*n < m[2]:
			return i + 2
		case m[3]*n < m[3]:
			return i + 3
		case m[4]*n < m[4]:
			return i + 4
		case m[5]*n < m[5]:
			return i + 5
		case m[6]*n < m[6]:
			return i + 6
		case m[7]*n < m[7]:
			return i + 7
		}
	}
	for i < len(magic) && magic[i]*n >= magic[i] {
		i++
	}
	return i
}

// Seeds returns the filter's seed primes.
func (f *PrimeFilter) Seeds() []int32 {
	return append([]int32(nil), f.seeds...)
}

// Accepted returns the survivors this filter accumulated.
func (f *PrimeFilter) Accepted() []int32 {
	return slices.Concat(f.accepted...)
}

// Range returns the filter's seed prime range.
func (f *PrimeFilter) Range() (pmin, pmax int32) { return f.pmin, f.pmax }

// Snapshot returns the filter's mutable state — the accumulated survivors —
// for the fault journal's checkpoint protocol. The seeds are deterministic
// from the constructor arguments, so they are rebuilt by the constructor
// replay and need not travel.
func (f *PrimeFilter) Snapshot() []int32 {
	return slices.Concat(f.accepted...)
}

// Restore reinstates a Snapshot — the inverse used when reincarnation replays
// a checkpoint plus the journal tail instead of the full history.
func (f *PrimeFilter) Restore(accepted []int32) {
	f.accepted = append(f.accepted[:0], slices.Clone(accepted))
}

// TakeOps implements par.OpsReporter: it returns and resets the operation
// counter.
func (f *PrimeFilter) TakeOps() int64 {
	ops := f.ops
	f.ops = 0
	return ops
}

// ISqrt returns ⌊√n⌋ for n ≥ 0.
func ISqrt(n int32) int32 {
	if n < 0 {
		panic(fmt.Sprintf("sieve: ISqrt(%d)", n))
	}
	x := int32(0)
	for int64(x+1)*int64(x+1) <= int64(n) {
		x++
	}
	return x
}

// Candidates returns the odd candidate numbers in (from, max] — the paper
// sends only odd numbers to the pipeline. The woven runs never build the
// whole list: they pass CandidateOdds, and each pack is built as its call
// is issued.
func Candidates(from, max int32) []int32 { return CandidateOdds(from, max).Build() }

// Odds is the run of N consecutive odd numbers from From: a candidate range
// as a par.Lazy pack payload, cut and halved without being built.
type Odds struct {
	From int32
	N    int
}

// CandidateOdds returns the odd candidate numbers in (from, max] as a range.
func CandidateOdds(from, max int32) Odds {
	start := from + 1
	if start%2 == 0 {
		start++
	}
	if start <= 0 || start > max {
		return Odds{}
	}
	return Odds{From: start, N: int((int64(max)-int64(start))/2 + 1)}
}

// Len implements par.Lazy.
func (o Odds) Len() int { return o.N }

// Halve implements par.Lazy: it cuts at N/2, where par halves a built pack.
func (o Odds) Halve() (a, b par.Lazy) {
	mid := o.N / 2
	return o.slice(0, mid), o.slice(mid, o.N)
}

// slice returns elements [i, j) of the range.
func (o Odds) slice(i, j int) Odds {
	return Odds{From: int32(int64(o.From) + 2*int64(i)), N: j - i}
}

// Build implements par.Lazy: the range's numbers, nil when it is empty.
// Filling the exact size by index, four stores a trip, costs less than
// appending.
func (o Odds) Build() []int32 {
	if o.N == 0 {
		return nil
	}
	out := make([]int32, o.N)
	n, i := o.From, 0
	for ; i+4 <= len(out); i += 4 {
		w := out[i : i+4 : i+4]
		w[0], w[1], w[2], w[3] = n, n+2, n+4, n+6
		n += 8 // may wrap past MaxInt32 after the last four; then unused
	}
	for ; i < len(out); i++ {
		out[i] = n
		n += 2
	}
	return out
}

// Reference computes all primes up to max with a classic sieve of
// Eratosthenes — the oracle the tests compare every parallel variant
// against.
func Reference(max int32) []int32 {
	if max < 2 {
		return nil
	}
	composite := make([]bool, max+1)
	var primes []int32
	for n := int32(2); n <= max; n++ {
		if composite[n] {
			continue
		}
		primes = append(primes, n)
		for m := int64(n) * int64(n); m <= int64(max); m += int64(n) {
			composite[m] = true
		}
	}
	return primes
}

// Checksum folds a prime list into (count, sum) for cheap equality checks
// across large runs.
func Checksum(primes []int32) (count int, sum uint64) {
	for _, p := range primes {
		sum += uint64(p)
	}
	return len(primes), sum
}
