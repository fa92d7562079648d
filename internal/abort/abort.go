// Package abort names why a hardware transaction aborted: the categories
// of Intel TSX status codes that the paper's Table 1 breaks aborts down by.
// It is the one copy of that taxonomy. The engine (htm) reports it, the
// fault injector (fault) forces it, the tracer (trace) records it, and the
// profiler (prof) keys footprints by it, so it sits below all four and
// imports nothing of this module.
package abort

import "fmt"

// Reason classifies one hardware abort. The zero value, None, means the
// transaction committed.
type Reason uint8

const (
	// None means no abort: the transaction committed.
	None Reason = iota
	// Conflict: another thread accessed a monitored cache line.
	Conflict
	// Capacity: the transactional footprint exceeded the cache resources.
	Capacity
	// Explicit: the program executed an explicit abort (_xabort).
	Explicit
	// Other: any other hardware event, here the timer-interrupt model.
	Other
	// Count is the number of reasons, None included, for arrays indexed
	// by Reason.
	Count
)

// String returns the reason's stable lower-case name.
func (r Reason) String() string {
	switch r {
	case None:
		return "none"
	case Conflict:
		return "conflict"
	case Capacity:
		return "capacity"
	case Explicit:
		return "explicit"
	case Other:
		return "other"
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}
