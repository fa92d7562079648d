// Profile reconciliation: parthtm-vet -prof cross-checks the static
// footprint bounds computed by the txfootprint analyzer against the
// dynamic footprint histograms a tmprof profile recorded. The static
// estimator is deliberately conservative about what it can see — but it
// is blind to alias-based address arithmetic and data-dependent access
// patterns, so an *underestimate* (observed lines exceeding every static
// bound) means a body is touching memory the model did not account for.
// Reconciliation turns that blind spot into a checkable invariant.
package analysis

import (
	"fmt"
	"os"

	"repro/internal/prof"
	"repro/internal/sig"
)

// Engine-side commit-protocol overhead, in cache lines, added to every
// static bound before comparing against observed footprints. The fast
// path brackets the body with protocol traffic the body-level estimator
// does not model. Monitored reads: the global-lock line, the active-count
// line that summarises the write-lock signatures, the signature itself
// (sig.Lines lines per touched domain) whenever that count is nonzero, the
// domain ring's timestamp line and entry header. Writes: the timestamp
// line plus the published ring entry — its header line alone for a
// signature of up to 30 bits, the header and sig.Lines signature lines
// for a denser one.
// The margins are the worst case of each, for one domain — the CI
// reconciliation smoke runs the single-domain harness — and a multi-domain
// sweep's extra overhead is dominated by bodies the estimator already
// classifies unbounded.
const (
	// ReadMarginLines = glock line + active-count line + wlocks signature
	// (read only while a partitioned transaction is active) + timestamp
	// line + entry header line.
	ReadMarginLines = sig.Lines + 4
	// WriteMarginLines = timestamp line + entry header line + signature.
	// An upper bound: the signature lines are written only for the full
	// entry form, a compact entry costs 2.
	WriteMarginLines = sig.Lines + 2
)

// A FootprintMismatch is one reconciliation finding: a recorded footprint
// quantile exceeded every static bound plus the protocol margin.
type FootprintMismatch struct {
	// Class/Outcome identify the offending profile row.
	Class   string
	Outcome string
	// Kind is "read" or "write".
	Kind string
	// Observed is the row's p99 line count; Static the largest static
	// bound over all transaction bodies; Allowed = Static + margin.
	Observed int64
	Static   int64
	Allowed  int64
}

func (m FootprintMismatch) String() string {
	return fmt.Sprintf(
		"profile reconciliation: observed %s footprint p99 of %d lines (class %s, outcome %s) exceeds the static bound of %d (+%d protocol margin): the txfootprint estimator underestimates a transaction body — likely alias-based or data-dependent addressing it cannot see",
		m.Kind, m.Observed, m.Class, m.Outcome, m.Static, m.Allowed-m.Static)
}

// ReconcileProfile checks a recorded profile series against the static
// footprint bounds of every transaction body in prog. It returns one
// mismatch per (class, outcome, kind) whose observed p99 exceeds the
// static maximum plus the protocol margin. A profile with no footprint
// rows is an error, not a pass — reconciling against nothing would make
// the CI smoke vacuous.
func ReconcileProfile(prog *Program, series *prof.Series) ([]FootprintMismatch, error) {
	if len(series.Footprints) == 0 {
		return nil, fmt.Errorf("profile contains no footprint rows: was it recorded with profiling enabled (-prof-out after a profiled run)?")
	}
	bounds := FootprintBounds(prog)
	if len(bounds) == 0 {
		return nil, fmt.Errorf("no transaction bodies found in the analyzed packages: nothing to reconcile the profile against")
	}

	// The profile merges every body's footprints, so the comparison point
	// is the maximum static bound over all bodies. One unbounded body makes
	// the corresponding dimension unfalsifiable — by then the txfootprint
	// analyzer has already demanded a Pause partition or a bigtx rationale.
	var maxRead, maxWrite int64
	readUnbounded, writeUnbounded := false, false
	for _, b := range bounds {
		if b.ReadUnbounded {
			readUnbounded = true
		} else if b.ReadLines > maxRead {
			maxRead = b.ReadLines
		}
		if b.WriteUnbounded {
			writeUnbounded = true
		} else if b.WriteLines > maxWrite {
			maxWrite = b.WriteLines
		}
	}

	var out []FootprintMismatch
	for _, st := range series.Footprints {
		if !readUnbounded && st.ReadP99 > maxRead+ReadMarginLines {
			out = append(out, FootprintMismatch{
				Class: st.Class, Outcome: st.Outcome, Kind: "read",
				Observed: st.ReadP99, Static: maxRead, Allowed: maxRead + ReadMarginLines,
			})
		}
		if !writeUnbounded && st.WriteP99 > maxWrite+WriteMarginLines {
			out = append(out, FootprintMismatch{
				Class: st.Class, Outcome: st.Outcome, Kind: "write",
				Observed: st.WriteP99, Static: maxWrite, Allowed: maxWrite + WriteMarginLines,
			})
		}
	}
	return out, nil
}

// CheckProfile loads patterns (as Check does), reads the tmprof series at
// profilePath, and reconciles it against the loaded packages' static
// bounds — the library entry point behind `parthtm-vet -prof`.
func CheckProfile(dir, profilePath string, patterns ...string) ([]FootprintMismatch, error) {
	f, err := os.Open(profilePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	series, err := prof.DecodeSeries(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", profilePath, err)
	}
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return ReconcileProfile(NewProgram(pkgs...), series)
}
