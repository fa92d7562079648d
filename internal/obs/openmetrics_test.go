package obs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/tm"
	"repro/internal/trace"
)

// goldenExposition pins the exact exposition of a minimal snapshot: one
// system with bare tm counters and no optional sources. Every always-
// present family appears (zeros included), the gauge and quantile
// families contribute only their headers, and the scrape ends in # EOF.
// A diff here means the wire format changed — update deliberately, with
// the README's Prometheus recipe in mind.
const goldenExposition = `# TYPE parthtm_scrapes counter
# HELP parthtm_scrapes Coherent samples taken by the obs registry.
parthtm_scrapes_total 7
# TYPE parthtm_systems gauge
# HELP parthtm_systems Systems registered in this scrape.
parthtm_systems 1
# TYPE parthtm_commits counter
# HELP parthtm_commits Committed transactions by execution path.
parthtm_commits_total{system="Part-HTM",path="htm"} 12345
parthtm_commits_total{system="Part-HTM",path="sw"} 67
parthtm_commits_total{system="Part-HTM",path="gl"} 8
# TYPE parthtm_aborts counter
# HELP parthtm_aborts Aborted transaction attempts by hardware abort cause.
parthtm_aborts_total{system="Part-HTM",cause="conflict"} 9
parthtm_aborts_total{system="Part-HTM",cause="capacity"} 0
parthtm_aborts_total{system="Part-HTM",cause="explicit"} 0
parthtm_aborts_total{system="Part-HTM",cause="other"} 0
# TYPE parthtm_escalations counter
# HELP parthtm_escalations Contention-manager escalations onto the global-lock path.
parthtm_escalations_total{system="Part-HTM",kind="budget"} 0
parthtm_escalations_total{system="Part-HTM",kind="starve"} 0
parthtm_escalations_total{system="Part-HTM",kind="lemming"} 0
# TYPE parthtm_serial_seconds counter
# HELP parthtm_serial_seconds Time spent in globally serializing critical sections.
parthtm_serial_seconds_total{system="Part-HTM"} 1.5
# TYPE parthtm_degraded_transitions counter
# HELP parthtm_degraded_transitions Entries into and exits from degraded serialized mode.
parthtm_degraded_transitions_total{system="Part-HTM",edge="enter"} 0
parthtm_degraded_transitions_total{system="Part-HTM",edge="exit"} 0
# TYPE parthtm_degraded_commits counter
# HELP parthtm_degraded_commits Transactions committed while degraded mode was active.
parthtm_degraded_commits_total{system="Part-HTM"} 0
# TYPE parthtm_faults_injected counter
# HELP parthtm_faults_injected Aborts forced by the fault injector.
parthtm_faults_injected_total{system="Part-HTM"} 0
# TYPE parthtm_breaker_events counter
# HELP parthtm_breaker_events Per-thread HTM circuit-breaker state events.
parthtm_breaker_events_total{system="Part-HTM",event="trip"} 0
parthtm_breaker_events_total{system="Part-HTM",event="probe"} 0
parthtm_breaker_events_total{system="Part-HTM",event="close"} 0
parthtm_breaker_events_total{system="Part-HTM",event="slow"} 0
# TYPE parthtm_watchdog_alarms counter
# HELP parthtm_watchdog_alarms Progress-watchdog alarms.
parthtm_watchdog_alarms_total{system="Part-HTM"} 2
# TYPE parthtm_cross_domain counter
# HELP parthtm_cross_domain Transaction attempts spanning two or more memory domains.
parthtm_cross_domain_total{system="Part-HTM",outcome="commit"} 0
parthtm_cross_domain_total{system="Part-HTM",outcome="abort"} 0
# TYPE parthtm_domain_ring_rollovers counter
# HELP parthtm_domain_ring_rollovers Validations that failed because a domain ring lapped the validator.
parthtm_domain_ring_rollovers_total{system="Part-HTM"} 0
# TYPE parthtm_degraded gauge
# HELP parthtm_degraded Whether degraded serialized mode is active (0/1).
# TYPE parthtm_pressure gauge
# HELP parthtm_pressure Kernel back-pressure level.
# TYPE parthtm_inflight gauge
# HELP parthtm_inflight Threads inside a transaction (begun, not yet finished).
# TYPE parthtm_commit_latency_seconds gauge
# HELP parthtm_commit_latency_seconds Commit latency quantiles by execution path.
# TYPE parthtm_commit_latency_count gauge
# HELP parthtm_commit_latency_count Commit latency recordings by execution path.
# TYPE parthtm_abort_latency_seconds gauge
# HELP parthtm_abort_latency_seconds Attempt-to-abort latency quantiles by abort cause.
# TYPE parthtm_abort_latency_count gauge
# HELP parthtm_abort_latency_count Abort latency recordings by abort cause.
# TYPE parthtm_footprint_lines gauge
# HELP parthtm_footprint_lines Transaction footprint quantiles (cache lines / set ways).
# TYPE parthtm_footprint_count gauge
# HELP parthtm_footprint_count Transaction outcomes profiled per footprint cell.
# EOF
`

func TestWriteOpenMetricsGolden(t *testing.T) {
	snap := &Snapshot{
		Seq: 7,
		Systems: []SystemSample{{
			Name: "Part-HTM",
			TM: tm.Snapshot{
				CommitsHTM: 12345, CommitsSW: 67, CommitsGL: 8,
				AbortsConflict: 9,
				SerialNanos:    int64(1500 * time.Millisecond),
				WatchdogAlarms: 2,
			},
		}},
	}
	var sb strings.Builder
	if err := WriteOpenMetrics(&sb, snap); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != goldenExposition {
		t.Errorf("exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, goldenExposition)
	}
}

// TestExpositionRoundTrip scrapes a live registry through the encoder and
// the strict parser and checks the parsed values against the very
// tm.Snapshot the scrape was built from.
func TestExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	src := fullSource(t)
	reg.Register("sys", src)
	var snap Snapshot
	reg.Sample(&snap)

	var sb strings.Builder
	if err := WriteOpenMetrics(&sb, &snap); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("strict parse of own output: %v", err)
	}

	s := &snap.Systems[0]
	checks := []struct {
		name   string
		labels map[string]string
		want   float64
	}{
		{"parthtm_scrapes_total", nil, float64(snap.Seq)},
		{"parthtm_systems", nil, 1},
		{"parthtm_commits_total", map[string]string{"system": "sys", "path": "htm"}, float64(s.TM.CommitsHTM)},
		{"parthtm_commits_total", map[string]string{"system": "sys", "path": "gl"}, float64(s.TM.CommitsGL)},
		{"parthtm_aborts_total", map[string]string{"system": "sys", "cause": "conflict"}, float64(s.TM.AbortsConflict)},
		{"parthtm_watchdog_alarms_total", map[string]string{"system": "sys"}, float64(s.TM.WatchdogAlarms)},
		{"parthtm_serial_seconds_total", map[string]string{"system": "sys"}, float64(s.TM.SerialNanos) / 1e9},
		{"parthtm_pressure", map[string]string{"system": "sys"}, float64(s.Pressure)},
		{"parthtm_degraded", map[string]string{"system": "sys"}, 1},
		{"parthtm_inflight", map[string]string{"system": "sys"}, float64(s.Inflight)},
		{"parthtm_commit_latency_count", map[string]string{"system": "sys", "path": "htm"},
			float64(s.Latency.Path[trace.PathHTM].Count)},
		{"parthtm_commit_latency_seconds", map[string]string{"system": "sys", "path": "htm", "q": "0.99"},
			float64(s.Latency.Path[trace.PathHTM].P99) / 1e9},
		{"parthtm_abort_latency_count", map[string]string{"system": "sys", "cause": "conflict"},
			float64(s.Latency.Abort[trace.CauseConflict].Count)},
		{"parthtm_footprint_count", map[string]string{"system": "sys", "class": "fast", "outcome": "commit"}, 10},
		{"parthtm_footprint_lines", map[string]string{
			"system": "sys", "class": "fast", "outcome": "commit", "dim": "read", "q": "max"}, 8},
	}
	for _, c := range checks {
		got, ok := exp.Value(c.name, c.labels)
		if !ok {
			t.Errorf("sample %s%v missing from exposition", c.name, c.labels)
			continue
		}
		if got != c.want {
			t.Errorf("%s%v = %g, want %g", c.name, c.labels, got, c.want)
		}
	}
	if len(exp.Families()) < 20 {
		t.Errorf("only %d families declared: %v", len(exp.Families()), exp.Families())
	}
}

func TestParseExpositionStrict(t *testing.T) {
	bad := []struct {
		name, in, wantErr string
	}{
		{"no-eof", "# TYPE a gauge\na 1\n", "does not end with # EOF"},
		{"blank-line", "# TYPE a gauge\n\na 1\n# EOF\n", "blank line"},
		{"after-eof", "# EOF\nx 1\n", "content after # EOF"},
		{"no-type", "a 1\n# EOF\n", "no preceding TYPE"},
		{"counter-no-total", "# TYPE a counter\na 1\n# EOF\n", "missing _total"},
		{"unknown-directive", "# FOO a b\n# EOF\n", "unknown directive"},
		{"dup-type", "# TYPE a gauge\n# TYPE a gauge\n# EOF\n", "duplicate TYPE"},
		{"help-first", "# HELP a h\n# EOF\n", "undeclared family"},
		{"bad-escape", "# TYPE a gauge\na{l=\"\\q\"} 1\n# EOF\n", `bad escape`},
		{"unterminated-label", "# TYPE a gauge\na{l=\"x} 1\n# EOF\n", "unterminated"},
		{"no-value", "# TYPE a gauge\na{l=\"x\"}\n# EOF\n", "missing value"},
	}
	for _, c := range bad {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseExposition(strings.NewReader(c.in))
			if err == nil {
				t.Fatalf("accepted %q", c.in)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}

	// Label escapes survive a round trip through encoder-style escaping.
	in := "# TYPE a gauge\na{l=\"x\\\\y\\\"z\\n\"} 4\n# EOF\n"
	exp, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := exp.Value("a", map[string]string{"l": "x\\y\"z\n"})
	if !ok || got != 4 {
		t.Fatalf("escaped label lookup: got %g, ok %v", got, ok)
	}
	if escapeLabel("x\\y\"z\n") != `x\\y\"z\n` {
		t.Fatalf("escapeLabel = %q", escapeLabel("x\\y\"z\n"))
	}
}
