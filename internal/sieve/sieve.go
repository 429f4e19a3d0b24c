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
// The class counts its arithmetic operations (trial divisions) so the
// metering aspect can convert real work into virtual CPU time on the
// simulated testbed.
package sieve

import "fmt"

// PrimeFilter is the core class: sequential, oblivious of parallelism.
type PrimeFilter struct {
	pmin, pmax int32
	seeds      []int32 // primes in [pmin, pmax]
	accepted   []int32 // survivors this filter let through
	ops        int64   // trial divisions since the last TakeOps
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
func (f *PrimeFilter) Filter(nums []int32) []int32 {
	out := make([]int32, 0, len(nums))
	for _, n := range nums {
		keep := true
		for _, p := range f.seeds {
			f.ops++
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
	f.accepted = append(f.accepted, out...)
	return out
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
