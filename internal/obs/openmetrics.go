package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/prof"
	"repro/internal/trace"
)

// ContentType is the OpenMetrics exposition media type served by /metrics.
const ContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// quantile label values for the latency and footprint summaries.
var quantileLabels = [...]string{"0.50", "0.95", "0.99", "max"}

// omEnc accumulates an OpenMetrics exposition, sticky-error style.
type omEnc struct {
	w   *bufio.Writer
	err error
}

func (e *omEnc) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// family emits the TYPE/HELP header of one metric family.
func (e *omEnc) family(name, typ, help string) {
	e.printf("# TYPE %s %s\n# HELP %s %s\n", name, typ, name, help)
}

// row emits one sample line. labels alternate name, value.
func (e *omEnc) row(sample string, v float64, labels ...string) {
	if e.err != nil {
		return
	}
	var sb strings.Builder
	sb.WriteString(sample)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(labels[i])
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(labels[i+1]))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	sb.WriteByte('\n')
	_, e.err = e.w.WriteString(sb.String())
}

// escapeLabel escapes a label value per the exposition grammar.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var sb strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

const nanosPerSecond = 1e9

// WriteOpenMetrics encodes one registry snapshot in OpenMetrics text
// exposition format: every family grouped under its TYPE/HELP header,
// one row per (system, label) combination in deterministic order, and a
// trailing # EOF. The tm counter families are always present (zeros
// included, so rate() over a scrape series never sees a disappearing
// series); the gauge families appear only for systems that carry the
// corresponding source, and latency/footprint rows only for cells that
// have observed at least one value. The encoder allocates freely — it
// runs per scrape, never on the sampling path.
func WriteOpenMetrics(w io.Writer, snap *Snapshot) error {
	e := &omEnc{w: bufio.NewWriter(w)}

	e.family("parthtm_scrapes", "counter", "Coherent samples taken by the obs registry.")
	e.row("parthtm_scrapes_total", float64(snap.Seq))
	e.family("parthtm_systems", "gauge", "Systems registered in this scrape.")
	e.row("parthtm_systems", float64(len(snap.Systems)))

	e.family("parthtm_commits", "counter", "Committed transactions by execution path.")
	for i := range snap.Systems {
		s := &snap.Systems[i]
		e.row("parthtm_commits_total", float64(s.TM.CommitsHTM), "system", s.Name, "path", "htm")
		e.row("parthtm_commits_total", float64(s.TM.CommitsSW), "system", s.Name, "path", "sw")
		e.row("parthtm_commits_total", float64(s.TM.CommitsGL), "system", s.Name, "path", "gl")
	}
	e.family("parthtm_aborts", "counter", "Aborted transaction attempts by hardware abort cause.")
	for i := range snap.Systems {
		s := &snap.Systems[i]
		e.row("parthtm_aborts_total", float64(s.TM.AbortsConflict), "system", s.Name, "cause", "conflict")
		e.row("parthtm_aborts_total", float64(s.TM.AbortsCapacity), "system", s.Name, "cause", "capacity")
		e.row("parthtm_aborts_total", float64(s.TM.AbortsExplicit), "system", s.Name, "cause", "explicit")
		e.row("parthtm_aborts_total", float64(s.TM.AbortsOther), "system", s.Name, "cause", "other")
	}
	e.family("parthtm_escalations", "counter", "Contention-manager escalations onto the global-lock path.")
	for i := range snap.Systems {
		s := &snap.Systems[i]
		e.row("parthtm_escalations_total", float64(s.TM.EscalationsBudget), "system", s.Name, "kind", "budget")
		e.row("parthtm_escalations_total", float64(s.TM.EscalationsStarve), "system", s.Name, "kind", "starve")
		e.row("parthtm_escalations_total", float64(s.TM.EscalationsLemming), "system", s.Name, "kind", "lemming")
	}
	e.family("parthtm_serial_seconds", "counter", "Time spent in globally serializing critical sections.")
	for i := range snap.Systems {
		s := &snap.Systems[i]
		e.row("parthtm_serial_seconds_total", float64(s.TM.SerialNanos)/nanosPerSecond, "system", s.Name)
	}
	e.family("parthtm_degraded_transitions", "counter", "Entries into and exits from degraded serialized mode.")
	for i := range snap.Systems {
		s := &snap.Systems[i]
		e.row("parthtm_degraded_transitions_total", float64(s.TM.DegradedEnter), "system", s.Name, "edge", "enter")
		e.row("parthtm_degraded_transitions_total", float64(s.TM.DegradedExit), "system", s.Name, "edge", "exit")
	}
	e.family("parthtm_degraded_commits", "counter", "Transactions committed while degraded mode was active.")
	for i := range snap.Systems {
		s := &snap.Systems[i]
		e.row("parthtm_degraded_commits_total", float64(s.TM.DegradedCommits), "system", s.Name)
	}
	e.family("parthtm_faults_injected", "counter", "Aborts forced by the fault injector.")
	for i := range snap.Systems {
		s := &snap.Systems[i]
		e.row("parthtm_faults_injected_total", float64(s.TM.FaultsInjected), "system", s.Name)
	}
	e.family("parthtm_breaker_events", "counter", "Per-thread HTM circuit-breaker state events.")
	for i := range snap.Systems {
		s := &snap.Systems[i]
		e.row("parthtm_breaker_events_total", float64(s.TM.BreakerTrips), "system", s.Name, "event", "trip")
		e.row("parthtm_breaker_events_total", float64(s.TM.BreakerProbes), "system", s.Name, "event", "probe")
		e.row("parthtm_breaker_events_total", float64(s.TM.BreakerCloses), "system", s.Name, "event", "close")
		e.row("parthtm_breaker_events_total", float64(s.TM.BreakerSlow), "system", s.Name, "event", "slow")
	}
	e.family("parthtm_watchdog_alarms", "counter", "Progress-watchdog alarms.")
	for i := range snap.Systems {
		s := &snap.Systems[i]
		e.row("parthtm_watchdog_alarms_total", float64(s.TM.WatchdogAlarms), "system", s.Name)
	}
	e.family("parthtm_cross_domain", "counter", "Transaction attempts spanning two or more memory domains.")
	for i := range snap.Systems {
		s := &snap.Systems[i]
		e.row("parthtm_cross_domain_total", float64(s.TM.CrossDomainCommits), "system", s.Name, "outcome", "commit")
		e.row("parthtm_cross_domain_total", float64(s.TM.CrossDomainAborts), "system", s.Name, "outcome", "abort")
	}
	e.family("parthtm_domain_ring_rollovers", "counter", "Validations that failed because a domain ring lapped the validator.")
	for i := range snap.Systems {
		s := &snap.Systems[i]
		e.row("parthtm_domain_ring_rollovers_total", float64(s.TM.DomainRingRollovers), "system", s.Name)
	}

	e.family("parthtm_degraded", "gauge", "Whether degraded serialized mode is active (0/1).")
	for i := range snap.Systems {
		s := &snap.Systems[i]
		if !s.HasKernel {
			continue
		}
		v := 0.0
		if s.Degraded {
			v = 1
		}
		e.row("parthtm_degraded", v, "system", s.Name)
	}
	e.family("parthtm_pressure", "gauge", "Kernel back-pressure level.")
	for i := range snap.Systems {
		s := &snap.Systems[i]
		if s.HasKernel {
			e.row("parthtm_pressure", float64(s.Pressure), "system", s.Name)
		}
	}
	e.family("parthtm_inflight", "gauge", "Threads inside a transaction (begun, not yet finished).")
	for i := range snap.Systems {
		s := &snap.Systems[i]
		if s.HasGov {
			e.row("parthtm_inflight", float64(s.Inflight), "system", s.Name)
		}
	}

	e.family("parthtm_commit_latency_seconds", "gauge", "Commit latency quantiles by execution path.")
	e.latencyRows(snap, "parthtm_commit_latency_seconds", true, false)
	e.family("parthtm_commit_latency_count", "gauge", "Commit latency recordings by execution path.")
	e.latencyRows(snap, "parthtm_commit_latency_count", true, true)
	e.family("parthtm_abort_latency_seconds", "gauge", "Attempt-to-abort latency quantiles by abort cause.")
	e.latencyRows(snap, "parthtm_abort_latency_seconds", false, false)
	e.family("parthtm_abort_latency_count", "gauge", "Abort latency recordings by abort cause.")
	e.latencyRows(snap, "parthtm_abort_latency_count", false, true)

	e.family("parthtm_footprint_lines", "gauge", "Transaction footprint quantiles (cache lines / set ways).")
	for i := range snap.Systems {
		s := &snap.Systems[i]
		if !s.HasProf {
			continue
		}
		for c := 0; c < int(prof.ClassCount); c++ {
			for o := 0; o < int(prof.OutcomeCount); o++ {
				cell := &s.Foot[c][o]
				if cell.Count == 0 {
					continue
				}
				cl, out := prof.ClassName(uint8(c)), prof.OutcomeName(uint8(o))
				dims := [...]struct {
					dim           string
					p50, p99, max int64
				}{
					{"read", cell.ReadP50, cell.ReadP99, cell.ReadMax},
					{"write", cell.WriteP50, cell.WriteP99, cell.WriteMax},
					{"occ", cell.OccP50, cell.OccP99, cell.OccMax},
				}
				for _, d := range dims {
					e.row("parthtm_footprint_lines", float64(d.p50), "system", s.Name, "class", cl, "outcome", out, "dim", d.dim, "q", "0.50")
					e.row("parthtm_footprint_lines", float64(d.p99), "system", s.Name, "class", cl, "outcome", out, "dim", d.dim, "q", "0.99")
					e.row("parthtm_footprint_lines", float64(d.max), "system", s.Name, "class", cl, "outcome", out, "dim", d.dim, "q", "max")
				}
			}
		}
	}
	e.family("parthtm_footprint_count", "gauge", "Transaction outcomes profiled per footprint cell.")
	for i := range snap.Systems {
		s := &snap.Systems[i]
		if !s.HasProf {
			continue
		}
		for c := 0; c < int(prof.ClassCount); c++ {
			for o := 0; o < int(prof.OutcomeCount); o++ {
				if n := s.Foot[c][o].Count; n != 0 {
					e.row("parthtm_footprint_count", float64(n),
						"system", s.Name, "class", prof.ClassName(uint8(c)), "outcome", prof.OutcomeName(uint8(o)))
				}
			}
		}
	}

	e.printf("# EOF\n")
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// latencyRows emits one latency family's rows: quantiles (in seconds) or
// counts, over commit paths or abort causes, gated on non-empty stats.
func (e *omEnc) latencyRows(snap *Snapshot, sample string, commit, count bool) {
	for i := range snap.Systems {
		s := &snap.Systems[i]
		if !s.HasSink {
			continue
		}
		if commit {
			for p := range s.Latency.Path {
				e.latencyRow(sample, s.Name, "path", trace.PathName(uint8(p)), &s.Latency.Path[p], count)
			}
		} else {
			for c := range s.Latency.Abort {
				e.latencyRow(sample, s.Name, "cause", trace.CauseName(uint8(c)), &s.Latency.Abort[c], count)
			}
		}
	}
}

func (e *omEnc) latencyRow(sample, system, labelKey, labelVal string, st *trace.LatencyStat, count bool) {
	if st.Count == 0 {
		return
	}
	if count {
		e.row(sample, float64(st.Count), "system", system, labelKey, labelVal)
		return
	}
	qs := [...]int64{st.P50, st.P95, st.P99, st.Max}
	for qi, v := range qs {
		e.row(sample, float64(v)/nanosPerSecond,
			"system", system, labelKey, labelVal, "q", quantileLabels[qi])
	}
}

// Point is one parsed sample line.
type Point struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Exposition is a parsed OpenMetrics scrape.
type Exposition struct {
	// Types maps metric family name (without the _total suffix) to its
	// declared type.
	Types map[string]string
	// Points holds every sample line in exposition order.
	Points []Point
}

// ParseExposition parses OpenMetrics text exposition strictly: every
// sample must belong to a family with a preceding # TYPE line (counter
// samples carry the family name plus _total), label values must be
// well-formed quoted strings, unknown comment directives and malformed
// lines are errors, and the exposition must end with # EOF. It exists so
// the round-trip tests and parthtm-bench -metrics-check validate exactly
// what the encoder claims to emit, not a lenient subset.
func ParseExposition(r io.Reader) (*Exposition, error) {
	exp := &Exposition{Types: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	sawEOF := false
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if sawEOF {
			return nil, fmt.Errorf("line %d: content after # EOF", lineNo)
		}
		if line == "" {
			return nil, fmt.Errorf("line %d: blank line in exposition", lineNo)
		}
		if strings.HasPrefix(line, "#") {
			switch {
			case line == "# EOF":
				sawEOF = true
			case strings.HasPrefix(line, "# TYPE "):
				rest := strings.TrimPrefix(line, "# TYPE ")
				name, typ, ok := strings.Cut(rest, " ")
				if !ok || name == "" || typ == "" {
					return nil, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
				}
				if _, dup := exp.Types[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for family %q", lineNo, name)
				}
				exp.Types[name] = typ
			case strings.HasPrefix(line, "# HELP "):
				rest := strings.TrimPrefix(line, "# HELP ")
				name, _, ok := strings.Cut(rest, " ")
				if !ok || name == "" {
					return nil, fmt.Errorf("line %d: malformed HELP line %q", lineNo, line)
				}
				if _, declared := exp.Types[name]; !declared {
					return nil, fmt.Errorf("line %d: HELP for undeclared family %q", lineNo, name)
				}
			default:
				return nil, fmt.Errorf("line %d: unknown directive %q", lineNo, line)
			}
			continue
		}
		pt, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		family := pt.Name
		if typ, ok := exp.Types[family]; ok {
			if typ == "counter" {
				return nil, fmt.Errorf("line %d: counter sample %q missing _total suffix", lineNo, pt.Name)
			}
		} else if f, found := strings.CutSuffix(pt.Name, "_total"); found && exp.Types[f] == "counter" {
			family = f
		} else {
			return nil, fmt.Errorf("line %d: sample %q has no preceding TYPE", lineNo, pt.Name)
		}
		exp.Points = append(exp.Points, pt)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawEOF {
		return nil, fmt.Errorf("exposition does not end with # EOF")
	}
	return exp, nil
}

// parseSample parses one `name{k="v",...} value` line.
func parseSample(line string) (Point, error) {
	pt := Point{}
	i := 0
	for i < len(line) && isNameChar(line[i]) {
		i++
	}
	if i == 0 {
		return pt, fmt.Errorf("malformed sample %q", line)
	}
	pt.Name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end := -1
		labels := map[string]string{}
		j := 1
		for j < len(rest) {
			if rest[j] == '}' {
				end = j
				break
			}
			k := j
			for k < len(rest) && isNameChar(rest[k]) {
				k++
			}
			if k == j || k >= len(rest) || rest[k] != '=' || k+1 >= len(rest) || rest[k+1] != '"' {
				return pt, fmt.Errorf("malformed label set in %q", line)
			}
			key := rest[j:k]
			val, n, err := unescapeLabel(rest[k+2:])
			if err != nil {
				return pt, fmt.Errorf("%v in %q", err, line)
			}
			labels[key] = val
			j = k + 2 + n + 1 // past key= , opening quote, value, closing quote
			if j < len(rest) && rest[j] == ',' {
				j++
			}
		}
		if end == -1 {
			return pt, fmt.Errorf("unterminated label set in %q", line)
		}
		pt.Labels = labels
		rest = rest[end+1:]
	}
	if !strings.HasPrefix(rest, " ") {
		return pt, fmt.Errorf("missing value in %q", line)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return pt, fmt.Errorf("malformed value/timestamp in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return pt, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	pt.Value = v
	return pt, nil
}

func isNameChar(c byte) bool {
	return c == '_' || c == ':' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// unescapeLabel consumes a label value up to its closing quote, returning
// the value and the number of raw bytes consumed (excluding the quote).
func unescapeLabel(s string) (string, int, error) {
	var sb strings.Builder
	i := 0
	for i < len(s) {
		switch s[i] {
		case '"':
			return sb.String(), i, nil
		case '\\':
			if i+1 >= len(s) {
				return "", 0, fmt.Errorf("dangling escape")
			}
			switch s[i+1] {
			case '\\':
				sb.WriteByte('\\')
			case '"':
				sb.WriteByte('"')
			case 'n':
				sb.WriteByte('\n')
			default:
				return "", 0, fmt.Errorf("bad escape \\%c", s[i+1])
			}
			i += 2
		default:
			sb.WriteByte(s[i])
			i++
		}
	}
	return "", 0, fmt.Errorf("unterminated label value")
}

// Value returns the value of the sample with the given name and exactly
// the given labels (nil matches an unlabelled sample).
func (exp *Exposition) Value(name string, labels map[string]string) (float64, bool) {
	for i := range exp.Points {
		pt := &exp.Points[i]
		if pt.Name != name || len(pt.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if pt.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return pt.Value, true
		}
	}
	return 0, false
}

// Families returns the declared family names in sorted order.
func (exp *Exposition) Families() []string {
	out := make([]string, 0, len(exp.Types))
	for name := range exp.Types {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
