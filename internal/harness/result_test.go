package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tm"
	"repro/internal/trace"
)

// goldenTable is a fixed table exercising the alignment rules: uneven value
// widths, a missing trailing value, and multiple series.
func goldenTable() Table {
	return Table{
		Title:   "golden demo",
		Metric:  "M tx/sec",
		Threads: []int{1, 2, 4},
		Series: []Series{
			{System: "Part-HTM", Values: []float64{1, 2.5, 3.25}},
			{System: "HTM-GL", Values: []float64{0.5, 1}},
		},
	}
}

// TestTableFormatGolden pins Table.Format's exact text rendering against a
// checked-in golden file, so accidental layout drift fails loudly. Run with
// UPDATE_GOLDEN=1 to regenerate after an intentional change.
func TestTableFormatGolden(t *testing.T) {
	tbl := goldenTable()
	got := tbl.Format()
	path := filepath.Join("testdata", "table_format.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("Table.Format drifted from golden file:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// sampleResult builds a Result touching every field, with both report
// shapes (a taxonomy report and a throughput sweep report).
func sampleResult() *Result {
	return &Result{
		ID:     "demo",
		Title:  "Demo result",
		Notes:  []string{"# demo header"},
		Tables: []Table{goldenTable()},
		Reports: []SystemReport{
			{
				System:  "Part-HTM",
				Threads: 4,
				Stats: tm.Snapshot{
					CommitsHTM: 10, CommitsSW: 5, CommitsGL: 1,
					AbortsConflict: 7, AbortsCapacity: 3, AbortsExplicit: 2, AbortsOther: 1,
					SerialNanos:       12345,
					EscalationsBudget: 1, EscalationsStarve: 2,
					FaultsInjected: 9,
				},
				Engine: &EngineSnapshot{
					Commits: 11, AbortsConflict: 6, AbortsCapacity: 4,
					AbortsExplicit: 2, AbortsOther: 1,
				},
				Latency: &LatencyReport{
					Paths: []LatencyRow{
						{Label: "htm", Count: 10, P50: 100, P95: 200, P99: 250, Max: 300, Mean: 120},
						{Label: "sw", Count: 5, P50: 1000, P95: 2000, P99: 2500, Max: 3000, Mean: 1200},
					},
					Aborts: []LatencyRow{
						{Label: "capacity", Count: 3, P50: 400, P95: 500, P99: 500, Max: 500, Mean: 420},
					},
				},
			},
			{
				System:     "HTM-GL",
				Threads:    4,
				FaultRate:  0.25,
				Throughput: &ThroughputResult{OpsPerSec: 1000, Projected: 2000},
				Stats:      tm.Snapshot{CommitsHTM: 20, CommitsGL: 2},
			},
		},
	}
}

// TestResultJSONRoundTrip: a Result must survive JSON encode/decode exactly
// — the JSON document is the machine-readable contract of -json.
func TestResultJSONRoundTrip(t *testing.T) {
	in := ResultSet{Results: []*Result{sampleResult()}}
	data, err := json.MarshalIndent(&in, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var out ResultSet
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&in, &out) {
		t.Fatalf("round trip changed the result:\nin:  %+v\nout: %+v", in.Results[0], out.Results[0])
	}
	// The machine contract: commit-path splits and the hardware abort
	// taxonomy must be present under stable snake_case keys.
	for _, key := range []string{
		`"commits_htm"`, `"commits_sw"`, `"commits_gl"`,
		`"aborts_conflict"`, `"aborts_capacity"`, `"aborts_explicit"`, `"aborts_other"`,
		`"faults_injected"`, `"escalations_budget"`, `"fault_rate"`, `"projected"`,
		`"latency"`, `"p50_ns"`, `"p99_ns"`, `"mean_ns"`,
	} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("JSON missing key %s:\n%s", key, data)
		}
	}
}

// TestResultTextShapes: the text renderer must produce the taxonomy layout
// for whole-run reports and the sweep layout for rate sweeps.
func TestResultTextShapes(t *testing.T) {
	taxonomy := &Result{
		Notes: []string{"# header"},
		Reports: []SystemReport{{
			System: "Part-HTM",
			Stats:  tm.Snapshot{CommitsHTM: 3, CommitsSW: 1},
			Engine: &EngineSnapshot{AbortsCapacity: 4},
		}},
	}
	out := taxonomy.Text()
	for _, needle := range []string{"# header", "capacity", "100.00%", "75.0%"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("taxonomy text missing %q:\n%s", needle, out)
		}
	}

	sweep := &Result{Reports: []SystemReport{
		{System: "A", FaultRate: 0, Throughput: &ThroughputResult{Projected: 5000}},
		{System: "A", FaultRate: 0.5, Throughput: &ThroughputResult{Projected: 4000}, Stats: tm.Snapshot{FaultsInjected: 7}},
		{System: "B", FaultRate: 0, Throughput: &ThroughputResult{Projected: 3000}},
	}}
	out = sweep.Text()
	for _, needle := range []string{"K tx/s", "injected", "alarms", "0.50"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("sweep text missing %q:\n%s", needle, out)
		}
	}
	// Rows of the same system stay in one block; a system change inserts a
	// blank line (the grouping the text sweep has always used).
	if !strings.Contains(out, "\n\nB") {
		t.Fatalf("sweep text missing blank line between system blocks:\n%s", out)
	}
}

// TestResultTextLatencyBlock: reports carrying latency tables render the
// quantile block; untraced results render no latency header at all.
func TestResultTextLatencyBlock(t *testing.T) {
	res := sampleResult()
	out := res.Text()
	for _, needle := range []string{
		"# latency (ns)", "p50", "p99",
		"commit", "htm", "sw", "abort", "capacity",
	} {
		if !strings.Contains(out, needle) {
			t.Fatalf("latency block missing %q:\n%s", needle, out)
		}
	}

	for i := range res.Reports {
		res.Reports[i].Latency = nil
	}
	if strings.Contains(res.Text(), "latency") {
		t.Fatalf("untraced result must not render a latency block:\n%s", res.Text())
	}
}

// TestResultTextPhasedRows: when reports have phases (heatmap layouts, soak
// campaigns), every taxonomy and latency row names its phase, so two rows
// of one system are told apart.
func TestResultTextPhasedRows(t *testing.T) {
	lat := &LatencyReport{Paths: []LatencyRow{{Label: "htm", Count: 4, P50: 100}}}
	res := &Result{Reports: []SystemReport{
		{System: "Part-HTM", Phase: "packed", Engine: &EngineSnapshot{AbortsConflict: 3}, Latency: lat},
		{System: "Part-HTM", Phase: "spread", Engine: &EngineSnapshot{AbortsConflict: 1}, Latency: lat},
	}}
	out := res.Text()
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "Part-HTM") {
			continue
		}
		rows++
		if !strings.Contains(line, "packed") && !strings.Contains(line, "spread") {
			t.Fatalf("row names no phase: %q\n%s", line, out)
		}
	}
	if rows != 4 { // one taxonomy and one latency row per phase
		t.Fatalf("%d system rows, want 4:\n%s", rows, out)
	}
}

// TestLatencyReportOf: empty distributions are dropped, a fully empty
// snapshot converts to nil (untraced runs must serialize unchanged).
func TestLatencyReportOf(t *testing.T) {
	var snap trace.LatencySnapshot
	if rep := LatencyReportOf(snap); rep != nil {
		t.Fatalf("empty snapshot must convert to nil, got %+v", rep)
	}
	snap.Path[trace.PathSW] = trace.LatencyStat{Count: 2, P50: 10, P95: 20, P99: 20, Max: 21, Mean: 12}
	snap.Abort[trace.CauseCapacity] = trace.LatencyStat{Count: 1, P50: 5, P95: 5, P99: 5, Max: 5, Mean: 5}
	rep := LatencyReportOf(snap)
	if rep == nil || len(rep.Paths) != 1 || len(rep.Aborts) != 1 {
		t.Fatalf("report = %+v, want one path row and one abort row", rep)
	}
	if rep.Paths[0].Label != "sw" || rep.Paths[0].P50 != 10 {
		t.Fatalf("path row = %+v", rep.Paths[0])
	}
	if rep.Aborts[0].Label != "capacity" || rep.Aborts[0].Count != 1 {
		t.Fatalf("abort row = %+v", rep.Aborts[0])
	}
}
