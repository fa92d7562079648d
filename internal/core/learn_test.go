package core

import (
	"testing"

	"repro/internal/abort"
	"repro/internal/sig"
)

// Learner events for FuzzLearner, one per five input bytes: an event byte
// and a footprint (cycles in two bytes, read lines, write lines). The low
// three bits of the event pick what happens; the bits above them are its
// options.
const (
	evTxn     = iota // a transaction begins; bit 3 asks for the fast attempt
	evAttempt        // a partitioned attempt of it begins
	evCommit         // the open segment commits holding the footprint
	evAbort          // the open hardware transaction aborts holding it: bit 3 the timer, else the cache; bit 6 forced; bits 4-5 a quarter of the commit lines
	evDone           // the transaction commits
	nEvents
)

// FuzzLearner drives the learner with footprints and abort reasons alone and
// checks the progress rule: after a resource abort the fault injector did
// not force, the retry's lim is strictly lower than the failed transaction's
// (no limit, for the fast attempt) in some dimension the abort is about, or
// the learner says the segment cannot shrink, and then none of those it used
// can drop. No limit is ever below its floor.
func FuzzLearner(f *testing.F) {
	ev := func(kind byte, c int64, r, w byte) []byte { return []byte{kind, byte(c >> 8), byte(c), r, w} }
	cat := func(evs ...[]byte) []byte {
		var out []byte
		for _, e := range evs {
			out = append(out, e...)
		}
		return out
	}
	const capacity, timer, forced, fastAsked = evAbort, evAbort | 8, 64, 8
	// A segment at every floor, failing three times (TestFailureAtEveryFloorCannotShrink).
	f.Add(uint16(0), uint16(0), uint16(0), uint16(64), uint16(16), uint16(2), cat(
		ev(evTxn, 0, 0, 0), ev(evAttempt, 0, 0, 0),
		ev(capacity, 70, 20, 3), ev(capacity, 70, 20, 3), ev(capacity, 70, 20, 3)))
	// Read lines over fit at their floor, write lines over at the sub-commit
	// (TestFailureAtTheFloorStillShrinksTheRetry).
	f.Add(uint16(150), uint16(16), uint16(16), uint16(116), uint16(16), uint16(14), cat(
		ev(evTxn, 0, 0, 0), ev(evAttempt, 0, 0, 0),
		ev(capacity|2<<4, 117, 21, 16), ev(capacity|2<<4, 117, 10, 8)))
	// Fast attempts dying on the cache and the timer, a forced abort,
	// segments, commits and probes.
	f.Add(uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), cat(
		ev(evTxn|fastAsked, 0, 0, 0), ev(capacity, 90, 64, 255), ev(evCommit, 40, 32, 120), ev(evCommit, 40, 2, 128), ev(evDone, 0, 0, 0),
		ev(evTxn|fastAsked, 0, 0, 0), ev(timer, 1500, 3, 1), ev(evCommit, 700, 2, 1), ev(timer, 1100, 2, 1), ev(evDone, 0, 0, 0),
		ev(evTxn|fastAsked, 0, 0, 0), ev(capacity|forced, 10, 1, 1), ev(evCommit, 10, 1, 1), ev(evDone, 0, 0, 0),
		ev(evTxn, 0, 0, 0), ev(evCommit, 10, 1, 1), ev(evDone, 0, 0, 0),
		ev(evTxn, 0, 0, 0), ev(evCommit, 10, 1, 1), ev(evDone, 0, 0, 0),
		ev(evTxn, 0, 0, 0), ev(evCommit, 10, 1, 1), ev(evDone, 0, 0, 0),
		ev(evTxn, 0, 0, 0), ev(evCommit, 10, 1, 1), ev(evDone, 0, 0, 0),
		ev(evTxn|fastAsked, 0, 0, 0), ev(capacity, 60, 40, 200), ev(evAttempt, 0, 0, 0), ev(capacity, 60, 40, 200)))
	f.Fuzz(func(t *testing.T, fitC, fitR, fitW, baseC, baseR, baseW uint16, evs []byte) {
		b := newLearner()
		b.fit = footprint{int64(fitC), int64(fitR), int64(fitW)}
		for d, v := range []uint16{baseC, baseR, baseW} {
			if v != 0 {
				b.base[d] = max(int64(v), budgetFloor[d])
			}
		}
		check := func(i int, what string, l footprint) {
			for d, v := range l {
				if v != 0 && v < budgetFloor[d] {
					t.Fatalf("event %d: %s %v is below the floor %v", i, what, l, budgetFloor)
				}
			}
		}
		b.begin()
		b.attempt(false)
		for i := 0; i+5 <= len(evs); i += 5 {
			e := evs[i]
			fp := footprint{int64(evs[i+1])<<8 | int64(evs[i+2]), int64(evs[i+3]), int64(evs[i+4])}
			switch e & 7 % nEvents {
			case evTxn:
				b.attempt(b.begin() && e&8 != 0)
			case evAttempt:
				b.attempt(false)
			case evCommit:
				if !b.fast {
					b.committed(fp)
				}
			case evAbort:
				reason, dims := abort.Capacity, uint(capacityDims)
				if e&8 != 0 {
					reason, dims = abort.Other, timeDims
				}
				prev, fast := b.lim, b.fast
				if fast {
					prev = footprint{}
				}
				smaller := b.failed(resourceDims(reason), fp, int64(e>>4&3)*sig.Lines, e&64 != 0)
				dropped := false
				for d := 0; e&64 == 0 && d < nDims; d++ {
					if dims&(1<<d) == 0 || fp[d] == 0 {
						continue
					}
					l := b.lim[d]
					lower := l != 0 && (prev[d] == 0 || l < prev[d])
					if lower && !smaller || !smaller && !fast && (l == 0 || l > max(fp[d]/2, budgetFloor[d])) || !smaller && fast && l != 0 {
						t.Fatalf("event %d: failed(%v, %v) says the segment cannot shrink, but lim %v -> %v can drop in dimension %d",
							i, reason, fp, prev, b.lim, d)
					}
					dropped = dropped || lower
				}
				if e&64 == 0 && smaller && !dropped {
					t.Fatalf("event %d: failed(%v, %v) says the retry is smaller, but lim %v -> %v dropped in no dimension it used",
						i, reason, fp, prev, b.lim)
				}
				if fast {
					b.attempt(false) // the fast level ends at a resource abort
				}
			case evDone:
				b.done()
				b.attempt(b.begin() && e&8 != 0)
			}
			check(i/5, "lim", b.lim)
			check(i/5, "base", b.base)
		}
	})
}
