package core

import "cmp"

// Resource dimensions. A dimension of a hardware transaction is one of the
// three numbers htm.Txn.Footprint reports; a limit of 0 is no limit.
const (
	dimCycles = iota
	dimReadLines
	dimWriteLines
	nDims
)

// The dimensions of a timer abort and of a capacity abort.
const (
	timeDims     = 1 << dimCycles
	capacityDims = 1<<dimReadLines | 1<<dimWriteLines
)

// footprint is what a hardware transaction consumed, or a limit on that, per
// dimension.
type footprint [nDims]int64

// budgetFloor keeps a limit from shrinking to nothing: a segment that fails
// at it in every dimension it used cannot shrink.
var budgetFloor = footprint{dimCycles: 64, dimReadLines: 16, dimWriteLines: 2}

// A probe raises a limit by 1/probeDiv of itself after probeEvery clean
// commits, from probeEveryMin; each failed probe of a limit doubles that wait,
// up to probeEveryMax.
const (
	probeDiv      = 8
	probeEveryMin = 4
	probeEveryMax = 1 << 10
)

func probeStep(v int64) int64 { return max(1, v/probeDiv) }

// The fast attempt is priced by what its abort wasted. fastMisses is how many
// transactions in a row must lose it to a resource abort before it is
// skipped; a timer abort the injector did not force counts as timerMisses at
// once, for it burned a whole quantum, the most any fast attempt can waste,
// where a capacity abort may come early. A probe with no limit to raise
// counts one more miss, and the skipped fast attempt is tried again when the
// count reaches a power of two: after a timer abort at the eighth such probe,
// 32 clean commits at first, after capacity aborts at the first.
const (
	fastMisses  = 3
	timerMisses = 8
)

// learner is one thread's knowledge of what fits in a hardware transaction.
// Every hardware transaction is a segment: a sub-HTM transaction of the
// partitioned path, or the fast attempt, the segment with no limit, which
// holds the whole transaction. The learner sees footprints, abort reasons and
// whether the fault injector forced an abort, nothing else. It keeps three
// facts per dimension and moves them by these rules:
//
//   - A resource abort makes the retry strictly smaller: lim drops to half
//     the failed footprint and stays there until the transaction ends. When
//     no dimension the segment used can drop, every one at its floor, failed
//     says the segment cannot shrink, and the partitioned attempt ends.
//   - A segment failure above everything that has ever committed sets base
//     just under the failed footprint, in one step: that footprint is the
//     bound.
//   - A failure at or below what has committed is placement (which cache set
//     the lines fell in), not size. base ignores it, unless the partitioned
//     transaction before also failed: then it steps down by one probe step.
//     A failure above fit that base was already under is treated the same
//     way.
//   - A dimension in which the failed segment stayed within what has
//     committed is not blamed while another exceeded it, and one it did not
//     use at all is never blamed. But when no blamed lim drops, every other
//     dimension the segment used is blamed too.
//   - The fast attempt teaches fit and base nothing: it is no segment. Its
//     retry, the partitioned path, starts from base, which is lower than no
//     limit wherever it knows one; a timer abort also halves the retry's
//     cycle limit. It counts misses (fastMisses), and a transaction that
//     commits as one hardware transaction, on it or in one segment, clears
//     them: it would have fit.
//   - A probe tries one step more, after probeEvery clean partitioned
//     commits: base one step up, never more than one step past fit nor
//     below the floor, or, with no limit to raise, the skipped fast attempt
//     at a power of two. A resource abort while the probe is unconfirmed
//     takes it back.
type learner struct {
	fit  footprint // the largest a sub-HTM transaction has committed with
	base footprint // what a fresh transaction starts from
	lim  footprint // what the running transaction partitions at

	misses int  // fast attempts lost in a row, and idle probes since
	fast   bool // the running attempt is the fast one
	segs   int  // segments the running attempt has committed

	fresh      bool // the running transaction has not run a partitioned attempt
	failedNow  bool // a segment of the running transaction had a resource abort
	failedPrev bool // so had one of the partitioned transaction before

	clean, probeEvery int  // clean commits since the last probe or failure, of how many
	probing           bool // a probe no commit has confirmed yet
	preProbe          footprint
	preMisses         int
}

func newLearner() learner { return learner{probeEvery: probeEveryMin} }

// begin starts a transaction from the persistent limits and reports whether
// it should try the fast attempt.
func (b *learner) begin() bool {
	b.lim, b.fresh = b.base, true
	return b.misses < fastMisses
}

// attempt starts an attempt of the running transaction: the fast one, or a
// partitioned one, which keeps what earlier attempts' failures taught.
func (b *learner) attempt(fast bool) {
	b.fast, b.segs = fast, 0
	if !fast && b.fresh {
		b.fresh, b.failedPrev, b.failedNow = false, b.failedNow, false
	}
}

// committed notes that a sub-HTM transaction committed holding f.
func (b *learner) committed(f footprint) {
	for d, v := range f {
		b.fit[d] = max(b.fit[d], v)
	}
	b.segs++
}

// failed learns from a hardware transaction that aborted holding f, for a
// reason about the dimensions dims (resourceDims): none, the cycles of a
// timer abort, or the lines of a capacity abort. commitLines is what a
// sub-commit adds to both line counts on top of the body's. It reports false
// when the retry cannot be smaller: the segment cannot shrink. An abort the
// injector forced chose its reason without looking at the footprint, so it
// teaches no limit.
func (b *learner) failed(dims uint, f footprint, commitLines int64, injected bool) bool {
	if dims == 0 {
		return true
	}
	fast := b.fast
	if fast {
		b.fast = false
		b.misses++
		if dims == timeDims && !injected {
			b.misses = max(b.misses, timerMisses)
		}
	}
	if injected {
		return true
	}
	if b.probing {
		if b.base != b.preProbe {
			b.probeEvery = min(2*b.probeEvery, probeEveryMax)
		}
		b.base, b.misses, b.probing = b.preProbe, max(b.misses, b.preMisses), false
	}
	b.clean = 0

	// Blame the dimensions in which f exceeds everything that has committed;
	// if there is none it is placement, which every dimension f used shares.
	var used, above uint
	for d := 0; d < nDims; d++ {
		if dims&(1<<d) != 0 && f[d] > 0 {
			used |= 1 << d
			if f[d] > b.fit[d] {
				above |= 1 << d
			}
		}
	}
	if fast {
		// The fast attempt had no limit. Its retry, the partitioned path,
		// starts from base: lower wherever base knows a limit. A timer abort
		// also halves the retry's cycle limit, as a segment's does; a
		// capacity abort, which may come early and does not say which lines
		// overflowed, does not. Where neither gives a limit, this segment
		// cannot shrink, and the partition points of the path it falls to
		// are what split the transaction.
		if dims == timeDims {
			b.shrink(used, f)
		}
		return b.lower(footprint{}, used)
	}
	recurs := b.failedPrev && !b.failedNow
	b.failedNow = true
	blamed := used
	if above != 0 {
		blamed = above
	}
	prev := b.lim
	b.shrink(blamed, f)
	if !b.lower(prev, blamed) {
		// The retry would run the same segment and fail the same way: the
		// blamed dimensions are at their floors, say, and the overflow came
		// at the sub-commit, from the signature lines it writes.
		b.shrink(used, f)
	}

	// Above what has committed, base goes just under f in one step, the
	// sub-commit's lines aside; otherwise, or if it was already under, it
	// steps down when the partitioned transaction before failed too.
	converged := false
	for d := 0; above != 0 && d < nDims; d++ {
		n := f[d] - 1
		if d != dimCycles {
			n -= commitLines
		}
		if n = max(n, budgetFloor[d]); blamed&(1<<d) != 0 && (b.base[d] == 0 || n < b.base[d]) {
			b.base[d], converged = n, true
		}
	}
	for d := 0; recurs && !converged && d < nDims; d++ {
		if top := cmp.Or(b.base[d], b.fit[d]); blamed&(1<<d) != 0 {
			b.base[d] = max(top-probeStep(top), budgetFloor[d])
		}
	}
	return b.lower(prev, used)
}

// shrink drops the lim of each dimension in mask to half the failed
// footprint f, not below the floor.
func (b *learner) shrink(mask uint, f footprint) {
	for d := 0; d < nDims; d++ {
		if n := max(f[d]/2, budgetFloor[d]); mask&(1<<d) != 0 && (b.lim[d] == 0 || n < b.lim[d]) {
			b.lim[d] = n
		}
	}
}

// lower reports whether lim is below prev, which is 0 where there was no
// limit, in some dimension of mask.
func (b *learner) lower(prev footprint, mask uint) bool {
	for d := 0; d < nDims; d++ {
		if mask&(1<<d) != 0 && b.lim[d] != 0 && (prev[d] == 0 || b.lim[d] < prev[d]) {
			return true
		}
	}
	return false
}

// done notes that the running transaction committed. One that committed as
// a single hardware transaction, the fast attempt or one segment, which held
// the whole transaction and the metadata besides, would have fit the fast
// attempt: its misses are cleared. Every probeEvery clean partitioned commits
// it probes.
func (b *learner) done() {
	if b.segs <= 1 {
		b.misses = 0
	}
	if b.failedNow {
		return
	}
	if b.probing {
		b.probing = false
		if b.base != b.preProbe {
			b.probeEvery = probeEveryMin
		}
	}
	if b.fast {
		return // no segment: nothing said about the limits
	}
	if b.clean++; b.clean < b.probeEvery {
		return
	}
	b.clean = 0
	b.preProbe, b.preMisses = b.base, b.misses
	for d, v := range b.base {
		if v != 0 {
			b.base[d] = max(min(v+probeStep(v), b.fit[d]+probeStep(b.fit[d])), budgetFloor[d])
			b.probing = b.probing || b.base[d] > v
		}
	}
	if !b.probing && b.misses >= fastMisses {
		// No limit to raise: the probe counts one more miss, and the
		// skipped fast attempt is tried again at a power of two, so one that
		// keeps failing is tried ever more rarely, at least once in
		// probeEveryMax such probes.
		if b.misses++; b.misses&(b.misses-1) == 0 || b.misses%probeEveryMax == 0 {
			b.preMisses, b.misses, b.probing = b.misses, fastMisses-1, true
		}
	}
}

// underHalf reports whether f uses less than half of every limit the
// running transaction knows, and it knows one.
func (b *learner) underHalf(f footprint) bool {
	known := false
	for d, lim := range b.lim {
		if lim == 0 {
			continue
		}
		if 2*f[d] >= lim {
			return false
		}
		known = true
	}
	return known
}
