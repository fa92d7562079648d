// Testdata for the domainorder analyzer's direction, progress and pairing
// rules. This package is neither core nor domain, so every helper call
// carries the confinement finding on top of whatever its mask walk earns.
package walks

import (
	"math/bits"

	"repro/internal/domain"
	"repro/internal/sig"
)

// good walk: the canonical commit — claim/publish ascend the written mask
// and clear it each iteration, release descends, the mirror of acquisition.
func commitOrdered(ds *domain.Domains, st *domain.TxnState, rs, ws *sig.Signature) {
	var start uint64
	for m := st.Wrote; m != 0; m &= m - 1 {
		d := bits.TrailingZeros64(m)
		ts, ok, _ := ds.ClaimTimestamp(d, rs, &start) // want `outside internal/core`
		if !ok {
			return
		}
		ds.Publish(d, ts, ws) // want `outside internal/core`
	}
	for m := st.Wrote; m != 0; {
		d := 63 - bits.LeadingZeros64(m)
		ds.ReleaseWlocks(d, ws) // want `outside internal/core`
		m &^= 1 << uint(d)
	}
}

// good walk: a constant domain index needs no ordering proof.
func commitSingle(ds *domain.Domains, rs, ws *sig.Signature) {
	var start uint64
	ts, ok, _ := ds.ClaimTimestamp(0, rs, &start) // want `outside internal/core`
	if ok {
		ds.Publish(0, ts, ws) // want `outside internal/core`
	}
	ds.ReleaseWlocks(0, ws) // want `outside internal/core`
}

// bad: claim/publish walking the mask downward — two commits walking in
// different orders can deadlock on each other's serialization points.
func claimDescending(ds *domain.Domains, st *domain.TxnState, rs, ws *sig.Signature) {
	var start uint64
	for m := st.Wrote; m != 0; {
		d := 63 - bits.LeadingZeros64(m)
		ts, _, _ := ds.ClaimTimestamp(d, rs, &start) // want `outside internal/core` `ClaimTimestamp called in a descending mask walk`
		ds.Publish(d, ts, ws)                        // want `outside internal/core` `Publish called in a descending mask walk`
		m &^= 1 << uint(d)
	}
}

// bad: releases ascending — not the mirror of the acquisition order.
func releaseAscending(ds *domain.Domains, st *domain.TxnState, ws *sig.Signature) {
	for m := st.Wrote; m != 0; m &= m - 1 {
		d := bits.TrailingZeros64(m)
		ds.ReleaseWlocks(d, ws) // want `outside internal/core` `ReleaseWlocks called in an ascending mask walk`
	}
}

// bad: a plain counter proves nothing about the order the written
// domains are visited in.
func unprovableIndex(ds *domain.Domains, n int, ws *sig.Signature) {
	for d := 0; d < n; d++ {
		ds.ReleaseWlocks(d, ws) // want `outside internal/core` `neither a constant nor derived from a canonical mask walk`
	}
}

// bad: the walk never clears the mask — no progress.
func stuckWalk(ds *domain.Domains, st *domain.TxnState, rs, ws *sig.Signature) {
	var start uint64
	for m := st.Wrote; m != 0; {
		d := bits.TrailingZeros64(m)
		ts, _, _ := ds.ClaimTimestamp(d, rs, &start) // want `outside internal/core` `never clears the mask`
		ds.Publish(d, ts, ws)                        // want `outside internal/core` `never clears the mask`
	}
}

// bad: a loop that claims but never publishes leaves the domain's ring
// entry open, wedging every validator of that domain.
func claimNoPublish(ds *domain.Domains, st *domain.TxnState, rs *sig.Signature) {
	var start uint64
	for m := st.Wrote; m != 0; m &= m - 1 {
		d := bits.TrailingZeros64(m)
		ds.ClaimTimestamp(d, rs, &start) // want `outside internal/core` `claimed timestamp is never published in the same walk`
	}
}

// good: suppressed — the annotation claims the order is proven by other
// means (here, a single-domain topology where order is vacuous), which
// covers every domainorder finding on the line, confinement included.
func vouched(ds *domain.Domains, st *domain.TxnState, rs, ws *sig.Signature) {
	var start uint64
	for m := st.Wrote; m != 0; m &= m - 1 {
		d := 63 - bits.LeadingZeros64(m)
		ts, _, _ := ds.ClaimTimestamp(d, rs, &start) // parthtm:ordered — single-domain build, order vacuous
		ds.Publish(d, ts, ws)                        // parthtm:ordered — single-domain build, order vacuous
	}
}
