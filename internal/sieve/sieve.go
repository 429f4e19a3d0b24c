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
// divisibility is decided is not part of the contract: Filter multiplies by
// a precomputed reciprocal instead of dividing, so the wall-clock kernel can
// get faster while the virtual-time model it feeds stays where it is.
package sieve

import "fmt"

// PrimeFilter is the core class: sequential, oblivious of parallelism.
type PrimeFilter struct {
	pmin, pmax int32
	seeds      []int32 // primes in [pmin, pmax]
	accepted   []int32 // survivors this filter let through
	ops        int64   // trial divisions since the last TakeOps

	// Per seed p, for Filter: magic = ⌊(2⁶⁴−1)/p⌋+1, for which p divides a
	// non-negative int32 n exactly when magic·n mod 2⁶⁴ < magic (Lemire,
	// Kaser & Kurz, "Faster remainder by direct computation").
	magic []uint64
}

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
// It is the naive loop — for each seed in order: count one operation, stop
// if p² > n, reject if p divides n — with the division strength-reduced
// away. k is the number of seeds with p² ≤ n, so only magic[:k] is tried;
// p divides n exactly when magic·n wraps to less than magic.
func (f *PrimeFilter) Filter(nums []int32) []int32 {
	start := len(f.accepted)
	seeds, k := f.seeds, 0
	var ops int64
	for _, n := range nums {
		// Packs ascend, so the cursor rarely moves; it moves both ways so
		// unsorted and negative input (k = 0) stay correct.
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
			f.accepted = append(f.accepted, n)
		}
	}
	f.ops += ops
	// A copy, not a view: Restore rewrites accepted's backing array in place
	// while a reply holding this pack may still be encoding.
	return append(make([]int32, 0, len(f.accepted)-start), f.accepted[start:]...)
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
	return append([]int32(nil), f.accepted...)
}

// Range returns the filter's seed prime range.
func (f *PrimeFilter) Range() (pmin, pmax int32) { return f.pmin, f.pmax }

// Snapshot returns the filter's mutable state — the accumulated survivors —
// for the fault journal's checkpoint protocol. The seeds are deterministic
// from the constructor arguments, so they are rebuilt by the constructor
// replay and need not travel.
func (f *PrimeFilter) Snapshot() []int32 {
	return append([]int32(nil), f.accepted...)
}

// Restore reinstates a Snapshot — the inverse used when reincarnation replays
// a checkpoint plus the journal tail instead of the full history.
func (f *PrimeFilter) Restore(accepted []int32) {
	f.accepted = append(f.accepted[:0], accepted...)
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
// sends only odd numbers to the pipeline.
func Candidates(from, max int32) []int32 {
	start := from + 1
	if start%2 == 0 {
		start++
	}
	if start <= 0 || start > max {
		return nil
	}
	// The exact size, allocated once: at the paper's scale this is 20 MB on
	// the driver's serial path, before the first pack can leave.
	out := make([]int32, 0, (int64(max)-int64(start))/2+1)
	for n := start; n <= max && n > 0; n += 2 {
		out = append(out, n)
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
