// Testdata for the domainorder analyzer's confinement rule: the ordered
// commit helpers may only be called from internal/core (or internal/domain
// itself) — this package is neither.
package domainorder

import (
	"repro/internal/domain"
	"repro/internal/mem"
	"repro/internal/sig"
)

// bad: every ordered commit helper called from outside the core commit
// sequence bypasses the protocol.
func rogue(ds *domain.Domains, ws *sig.Signature) {
	var start uint64
	ts, _, _ := ds.ClaimTimestamp(0, ws, &start) // want `ClaimTimestamp called outside internal/core's commit sequence`
	ds.Publish(0, ts, ws)                        // want `Publish called outside internal/core's commit sequence`
	ds.ReleaseWlocks(0, ws)                      // want `ReleaseWlocks called outside internal/core's commit sequence`
}

// good: the topology accessors are not commit-sequence helpers.
func fine(ds *domain.Domains, a mem.Addr) int {
	return ds.Of(a)
}
