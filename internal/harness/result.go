// Structured experiment results: every experiment produces a Result value
// that renders either as the traditional aligned text or as JSON, so the
// same run can feed a terminal and a plotting pipeline.
package harness

import (
	"fmt"
	"strings"

	"repro/internal/abort"
	"repro/internal/htm"
	"repro/internal/prof"
	"repro/internal/tm"
	"repro/internal/trace"
)

// Result is the structured outcome of one experiment run: the plotted
// tables, the per-system counter reports (Table 1 and the chaos sweep), and
// free-form header notes. It is the single source for both the text and the
// JSON renderings.
type Result struct {
	ID      string         `json:"id"`
	Title   string         `json:"title"`
	Notes   []string       `json:"notes,omitempty"`
	Tables  []Table        `json:"tables,omitempty"`
	Reports []SystemReport `json:"reports,omitempty"`
}

// SystemReport is one system's counters from one run: the commit-path split
// and robustness counters from the TM layer, the hardware abort taxonomy
// from the engine (nil for pure-software systems), and, for throughput
// sweeps, the measured rates.
type SystemReport struct {
	System    string  `json:"system"`
	Threads   int     `json:"threads"`
	FaultRate float64 `json:"fault_rate"`
	// Phase names the part of the run the report covers: a soak campaign
	// phase, a heatmap layout or a domains cell; empty for single-phase runs.
	Phase string `json:"phase,omitempty"`
	// Throughput is set by rate sweeps (the chaos experiment); nil for
	// whole-run reports like Table 1.
	Throughput *ThroughputResult `json:"throughput,omitempty"`
	Stats      tm.Snapshot       `json:"stats"`
	Engine     *htm.Snapshot     `json:"engine,omitempty"`
	// Latency carries the traced commit/abort latency quantiles; nil when
	// the run was not traced.
	Latency *LatencyReport `json:"latency,omitempty"`
	// Profile carries the abort-attribution profile (hot conflict lines,
	// set heat, footprint quantiles); nil when the run was not profiled.
	Profile *ProfileReport `json:"profile,omitempty"`
}

// ProfileReport is one system's merged abort-attribution profile: the
// top-K conflict hot lines from the SpaceSaving sketches, the non-zero
// associativity-set heat counters, and the footprint quantiles per
// (commit-path class, outcome) cell.
type ProfileReport struct {
	ConflictEvents uint64         `json:"conflict_events"`
	HotLines       []prof.HotLine `json:"hot_lines,omitempty"`
	Heat           []prof.SetHeat `json:"heat,omitempty"`
	// Domains carries the per-memory-domain abort heat; present only when
	// the profiled system ran a sharded-domain topology.
	Domains    []prof.DomainHeat    `json:"domains,omitempty"`
	Footprints []prof.FootprintStat `json:"footprints,omitempty"`
}

// ProfileReportOf converts a profile's merged shard state into the
// serializable report, dropping zero-heat sets. Returns nil when nothing
// was recorded (so unprofiled runs serialize identically to before the
// profiler existed). Writers must have quiesced.
func ProfileReportOf(p *prof.Profile) *ProfileReport {
	if p == nil {
		return nil
	}
	rep := &ProfileReport{
		ConflictEvents: p.ConflictEvents(),
		HotLines:       p.TopK(0),
		Footprints:     p.Footprints(),
	}
	for _, h := range p.Heat() {
		if h.Conflicts != 0 || h.Capacity != 0 {
			rep.Heat = append(rep.Heat, h)
		}
	}
	for _, h := range p.DomainHeat() {
		if h.Conflicts != 0 || h.Capacity != 0 {
			rep.Domains = append(rep.Domains, h)
		}
	}
	if rep.ConflictEvents == 0 && len(rep.HotLines) == 0 &&
		len(rep.Heat) == 0 && len(rep.Domains) == 0 && len(rep.Footprints) == 0 {
		return nil
	}
	return rep
}

// LatencyRow is one latency distribution: commit latency of one execution
// path, or begin-to-abort latency of one abort cause. Times are
// nanoseconds.
type LatencyRow struct {
	Label string  `json:"label"`
	Count uint64  `json:"count"`
	P50   int64   `json:"p50_ns"`
	P95   int64   `json:"p95_ns"`
	P99   int64   `json:"p99_ns"`
	Max   int64   `json:"max_ns"`
	Mean  float64 `json:"mean_ns"`
}

// LatencyReport is one system's traced latency tables: per-commit-path
// and per-abort-cause distributions (only populated rows are kept).
type LatencyReport struct {
	Paths  []LatencyRow `json:"paths,omitempty"`
	Aborts []LatencyRow `json:"aborts,omitempty"`
}

// LatencyReportOf converts a merged trace snapshot into the serializable
// report, dropping empty distributions. Returns nil when nothing was
// recorded (so untraced runs serialize identically to before tracing
// existed).
func LatencyReportOf(snap trace.LatencySnapshot) *LatencyReport {
	row := func(label string, st trace.LatencyStat) LatencyRow {
		return LatencyRow{Label: label, Count: st.Count,
			P50: st.P50, P95: st.P95, P99: st.P99, Max: st.Max, Mean: st.Mean}
	}
	var rep LatencyReport
	for p := uint8(0); p < trace.PathCount; p++ {
		if st := snap.Path[p]; st.Count > 0 {
			rep.Paths = append(rep.Paths, row(trace.PathName(p), st))
		}
	}
	for c := abort.None + 1; c < abort.Count; c++ { // None is never recorded
		if st := snap.Abort[c]; st.Count > 0 {
			rep.Aborts = append(rep.Aborts, row(c.String(), st))
		}
	}
	if len(rep.Paths) == 0 && len(rep.Aborts) == 0 {
		return nil
	}
	return &rep
}

// EngineSnapshotOf captures the engine taxonomy behind a system, or nil for
// pure-software systems.
func EngineSnapshotOf(sys tm.System) *htm.Snapshot {
	eng := EngineOf(sys)
	if eng == nil {
		return nil
	}
	snap := eng.Stats().Snapshot()
	return &snap
}

// ResultSet is the top-level JSON document: one Result per experiment run.
type ResultSet struct {
	Results []*Result `json:"results"`
}

// Text renders the result as the traditional aligned-text report: notes,
// then counter reports, then tables.
func (r *Result) Text() string {
	var b strings.Builder
	for _, n := range r.Notes {
		b.WriteString(n)
		b.WriteByte('\n')
	}
	r.formatReports(&b)
	for i := range r.Tables {
		b.WriteString(r.Tables[i].Format())
	}
	return b.String()
}

// formatReports renders the per-system counter block. Two shapes exist:
// whole-run taxonomy reports (Table 1: abort and commit-path percentages)
// and rate sweeps (chaos: one row per fault rate with throughput and
// robustness counters), distinguished by whether Throughput is set.
func (r *Result) formatReports(b *strings.Builder) {
	if len(r.Reports) == 0 {
		return
	}
	if r.Reports[0].Throughput == nil {
		r.formatTaxonomyReports(b)
	} else {
		r.formatSweepReports(b)
	}
	r.formatLatencyReports(b)
	r.formatProfileReports(b)
}

// rowLabels returns the column the report rows are labelled by and each
// report's label in it, in report order: the phase when any report has one
// (soak campaigns, heatmap layouts, domain cells), otherwise the fault rate.
func (r *Result) rowLabels() (col string, labels []string) {
	col = "rate"
	for i := range r.Reports {
		if r.Reports[i].Phase != "" {
			col = "phase"
			break
		}
	}
	for _, rep := range r.Reports {
		if col == "phase" {
			labels = append(labels, rep.Phase)
		} else {
			labels = append(labels, fmt.Sprintf("%.2f", rep.FaultRate))
		}
	}
	return col, labels
}

// formatProfileReports renders the abort-attribution profile blocks, one
// per report that carries them (profiled runs only): the hot-line table
// and the footprint quantiles.
func (r *Result) formatProfileReports(b *strings.Builder) {
	any := false
	for i := range r.Reports {
		if r.Reports[i].Profile != nil {
			any = true
			break
		}
	}
	if !any {
		return
	}
	const hotLimit = 10
	_, labels := r.rowLabels()
	fmt.Fprintf(b, "# profile: hot conflict lines (SpaceSaving top-K merged across threads; count-err is a guaranteed lower bound)\n")
	fmt.Fprintf(b, "%-10s %-8s %10s %10s %8s\n", "system", "phase", "line", "count", "err")
	for ri, rep := range r.Reports {
		pr, label := rep.Profile, labels[ri]
		if pr == nil {
			continue
		}
		if len(pr.HotLines) == 0 {
			fmt.Fprintf(b, "%-10s %-8s %10s (no conflicts recorded)\n", rep.System, label, "-")
			continue
		}
		for i, h := range pr.HotLines {
			if i == hotLimit {
				fmt.Fprintf(b, "%-10s %-8s %10s (%d more)\n", rep.System, label, "...", len(pr.HotLines)-hotLimit)
				break
			}
			fmt.Fprintf(b, "%-10s %-8s %10d %10d %8d\n", rep.System, label, h.Line, h.Count, h.Err)
		}
	}
	b.WriteByte('\n')
	domAny := false
	for i := range r.Reports {
		if pr := r.Reports[i].Profile; pr != nil && len(pr.Domains) > 0 {
			domAny = true
			break
		}
	}
	if domAny {
		fmt.Fprintf(b, "# profile: abort heat per memory domain (sharded topologies)\n")
		fmt.Fprintf(b, "%-10s %-8s %8s %12s %12s\n", "system", "phase", "domain", "conflicts", "capacity")
		for ri, rep := range r.Reports {
			pr := rep.Profile
			if pr == nil || len(pr.Domains) == 0 {
				continue
			}
			for _, h := range pr.Domains {
				fmt.Fprintf(b, "%-10s %-8s %8d %12d %12d\n", rep.System, labels[ri], h.Domain, h.Conflicts, h.Capacity)
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(b, "# profile: footprints (lines touched, peak set occupancy) per class and outcome\n")
	fmt.Fprintf(b, "%-10s %-8s %-5s %-9s %10s %14s %14s %12s\n",
		"system", "phase", "class", "outcome", "count", "read p50/p99", "write p50/p99", "occ p50/p99")
	for ri, rep := range r.Reports {
		pr := rep.Profile
		if pr == nil {
			continue
		}
		for _, f := range pr.Footprints {
			fmt.Fprintf(b, "%-10s %-8s %-5s %-9s %10d %6d/%-7d %6d/%-7d %5d/%-6d\n",
				rep.System, labels[ri], f.Class, f.Outcome, f.Count,
				f.ReadP50, f.ReadP99, f.WriteP50, f.WriteP99, f.OccP50, f.OccP99)
		}
	}
	b.WriteByte('\n')
}

// formatLatencyReports renders the traced latency tables, one block per
// report that carries them (traced runs only).
func (r *Result) formatLatencyReports(b *strings.Builder) {
	any := false
	for i := range r.Reports {
		if r.Reports[i].Latency != nil {
			any = true
			break
		}
	}
	if !any {
		return
	}
	col, labels := r.rowLabels()
	fmt.Fprintf(b, "# latency (ns): commit per path, begin-to-abort per cause\n")
	fmt.Fprintf(b, "%-10s %6s %-6s %-9s %10s %9s %9s %9s %10s\n",
		"system", col, "kind", "label", "count", "p50", "p95", "p99", "max")
	for ri, rep := range r.Reports {
		if rep.Latency == nil {
			continue
		}
		writeRows := func(kind string, rows []LatencyRow) {
			for _, lr := range rows {
				fmt.Fprintf(b, "%-10s %6s %-6s %-9s %10d %9d %9d %9d %10d\n",
					rep.System, labels[ri], kind, lr.Label,
					lr.Count, lr.P50, lr.P95, lr.P99, lr.Max)
			}
		}
		writeRows("commit", rep.Latency.Paths)
		writeRows("abort", rep.Latency.Aborts)
	}
	b.WriteByte('\n')
}

// formatTaxonomyReports renders whole-run reports. Their rows carry a phase
// column only when they have phases (heatmap layouts): a whole-run report
// (Table 1) has no rate to label it by.
func (r *Result) formatTaxonomyReports(b *strings.Builder) {
	col, labels := r.rowLabels()
	phased := col == "phase"
	head := "system"
	if phased {
		head = fmt.Sprintf("%-10s %-8s", "system", "phase")
	}
	fmt.Fprintf(b, "%-10s %9s %9s %9s %9s | %7s %7s %7s\n",
		head, "conflict", "capacity", "explicit", "other", "GL", "HTM", "SW")
	for ri, rep := range r.Reports {
		eng := rep.Engine
		if eng == nil {
			eng = &htm.Snapshot{}
		}
		aborts := float64(eng.Aborts())
		if aborts == 0 {
			aborts = 1
		}
		commits := float64(rep.Stats.Commits())
		if commits == 0 {
			commits = 1
		}
		name := rep.System
		if phased {
			name = fmt.Sprintf("%-10s %-8s", rep.System, labels[ri])
		}
		fmt.Fprintf(b, "%-10s %8.2f%% %8.2f%% %8.2f%% %8.2f%% | %6.1f%% %6.1f%% %6.1f%%\n",
			name,
			100*float64(eng.AbortsConflict)/aborts,
			100*float64(eng.AbortsCapacity)/aborts,
			100*float64(eng.AbortsExplicit)/aborts,
			100*float64(eng.AbortsOther)/aborts,
			100*float64(rep.Stats.CommitsGL)/commits,
			100*float64(rep.Stats.CommitsHTM)/commits,
			100*float64(rep.Stats.CommitsSW)/commits)
	}
}

func (r *Result) formatSweepReports(b *strings.Builder) {
	col, labels := r.rowLabels()
	fmt.Fprintf(b, "%-10s %7s %10s %7s %7s %7s %10s %7s %6s\n",
		"system", col, "K tx/s", "HTM", "SW", "GL", "injected", "escal", "alarms")
	for i, rep := range r.Reports {
		if i > 0 && rep.System != r.Reports[i-1].System {
			b.WriteByte('\n')
		}
		st := rep.Stats
		commits := float64(st.Commits())
		if commits == 0 {
			commits = 1
		}
		var proj float64
		if rep.Throughput != nil {
			proj = rep.Throughput.Projected
		}
		fmt.Fprintf(b, "%-10s %7s %10.1f %6.1f%% %6.1f%% %6.1f%% %10d %7d %6d\n",
			rep.System, labels[i], proj/1e3,
			100*float64(st.CommitsHTM)/commits,
			100*float64(st.CommitsSW)/commits,
			100*float64(st.CommitsGL)/commits,
			st.FaultsInjected, st.Escalations(), st.WatchdogAlarms)
	}
	b.WriteByte('\n')
}
