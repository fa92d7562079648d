package harness

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/prof"
)

// sampleProfileReport builds a valid profile block touching every field.
func sampleProfileReport() *ProfileReport {
	return &ProfileReport{
		ConflictEvents: 10,
		HotLines: []prof.HotLine{
			{Line: 100, Count: 7, Err: 0},
			{Line: 17, Count: 3, Err: 1},
		},
		Heat: []prof.SetHeat{
			{Set: 4, Conflicts: 8},
			{Set: 1, Capacity: 2},
		},
		Footprints: []prof.FootprintStat{{
			Class: "fast", Outcome: "commit", Count: 5,
			ReadP50: 2, ReadP95: 4, ReadP99: 4, ReadMax: 8,
			WriteP50: 1, WriteP95: 2, WriteP99: 2, WriteMax: 2,
			OccP50: 1, OccP95: 2, OccP99: 2, OccMax: 2,
		}},
	}
}

// TestProfileReportJSONRoundTrip: a ResultSet carrying profile blocks must
// survive encode + decode exactly.
func TestProfileReportJSONRoundTrip(t *testing.T) {
	res := sampleResult()
	res.Reports[0].Profile = sampleProfileReport()
	in := ResultSet{Results: []*Result{res}}
	data, err := json.MarshalIndent(&in, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var out ResultSet
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&in, &out) {
		t.Fatalf("round trip changed the result:\nin:  %+v\nout: %+v",
			in.Results[0].Reports[0].Profile, out.Results[0].Reports[0].Profile)
	}
	for _, key := range []string{
		`"profile"`, `"conflict_events"`, `"hot_lines"`, `"heat"`, `"footprints"`,
		`"line"`, `"count"`, `"err"`, `"set"`, `"conflicts"`, `"capacity"`,
		`"class"`, `"outcome"`, `"read_p50"`, `"write_p99"`, `"occ_max"`,
	} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("JSON missing key %s:\n%s", key, data)
		}
	}
}

// TestProfileTextRendering: profiled reports render the hot-line and
// footprint tables; unprofiled results render neither.
func TestProfileTextRendering(t *testing.T) {
	res := sampleResult()
	if strings.Contains(res.Text(), "# profile:") {
		t.Fatal("unprofiled result renders a profile block")
	}
	res.Reports[0].Profile = sampleProfileReport()
	out := res.Text()
	for _, needle := range []string{
		"# profile: hot conflict lines", "# profile: footprints",
		"100", "fast", "commit",
	} {
		if !strings.Contains(out, needle) {
			t.Fatalf("profiled text missing %q:\n%s", needle, out)
		}
	}
}

// TestProfileReportOfEmpty: a profile that recorded nothing serializes to
// nil, so unprofiled runs keep their exact pre-profiler JSON shape.
func TestProfileReportOfEmpty(t *testing.T) {
	if rep := ProfileReportOf(nil); rep != nil {
		t.Fatal("nil profile produced a report")
	}
	if rep := ProfileReportOf(prof.New(prof.Config{})); rep != nil {
		t.Fatalf("empty profile produced a report: %+v", rep)
	}
}

// TestHeatmapExperiment runs the profiler's acceptance experiment with the
// checks armed: the planted packed line must top the sketch and the packed
// layout must show the conflict-abort excess, deterministically.
func TestHeatmapExperiment(t *testing.T) {
	exp, ok := Find("heatmap")
	if !ok {
		t.Fatal("heatmap experiment not registered")
	}
	res, err := exp.Run(Options{Threads: []int{4}, Seed: 1, ProfCheck: true})
	if err != nil {
		t.Fatalf("heatmap profile check failed: %v", err)
	}
	byPhase := map[string]map[string]SystemReport{}
	for _, rep := range res.Reports {
		if byPhase[rep.System] == nil {
			byPhase[rep.System] = map[string]SystemReport{}
		}
		byPhase[rep.System][rep.Phase] = rep
	}
	for _, sys := range []string{"HTM-GL", "Part-HTM"} {
		packed, ok := byPhase[sys]["packed"]
		if !ok {
			t.Fatalf("%s: no packed report", sys)
		}
		spread, ok := byPhase[sys]["spread"]
		if !ok {
			t.Fatalf("%s: no spread report", sys)
		}
		if packed.Profile == nil || len(packed.Profile.HotLines) == 0 {
			t.Fatalf("%s: packed run recorded no hot lines", sys)
		}
		if packed.Engine == nil || spread.Engine == nil {
			t.Fatalf("%s: missing engine snapshots", sys)
		}
		if packed.Engine.AbortsConflict <= spread.Engine.AbortsConflict {
			t.Fatalf("%s: no placement effect: packed %d <= spread %d", sys,
				packed.Engine.AbortsConflict, spread.Engine.AbortsConflict)
		}
	}
}
