package prof

import (
	"encoding/json"
	"strings"
	"testing"
)

// The document holds the session's footprint rows and nothing else, and
// WriteJSON's output is exactly what DecodeSeries accepts.
func TestSeriesJSONRoundTrip(t *testing.T) {
	p := New(Config{})
	p.Shard(0).RecordFootprint(ClassFast, OutcomeCommit, 7, 3, 9)

	var b strings.Builder
	if err := p.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(b.String()), &raw); err != nil {
		t.Fatalf("exported JSON does not parse: %v", err)
	}
	if len(raw) != 1 || raw["footprints"] == nil {
		t.Fatalf("document keys = %v, want footprints only", raw)
	}
	got, err := DecodeSeries(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := p.SessionFootprints()
	if len(got.Footprints) != 1 || got.Footprints[0] != want[0] {
		t.Fatalf("round trip: got %+v, want %+v", got.Footprints, want)
	}
}

// Reset folds the shard footprints into the session accumulator, so a
// profile written after a multi-row sweep (the heatmap experiment resets
// between rows) still reconciles against static bounds.
func TestSessionFootprintsSurviveReset(t *testing.T) {
	p := New(Config{})
	p.Shard(0).RecordFootprint(ClassFast, OutcomeCommit, 40, 20, 60)
	p.Reset() // row boundary: per-row view clears, session view must not
	p.Shard(0).RecordFootprint(ClassFast, OutcomeCommit, 10, 5, 15)

	if rows := p.Footprints(); len(rows) != 1 || rows[0].Count != 1 {
		t.Fatalf("per-row view should hold only the post-reset event: %+v", rows)
	}
	rows := p.SessionFootprints()
	if len(rows) != 1 {
		t.Fatalf("session view lost rows: %+v", rows)
	}
	got := rows[0]
	if got.Class != "fast" || got.Outcome != "commit" || got.Count != 2 {
		t.Fatalf("session row = %+v, want fast/commit count 2", got)
	}
	if got.ReadMax < 40 || got.WriteMax < 20 {
		t.Fatalf("pre-reset footprints lost from session view: %+v", got)
	}
}

func TestSeriesFootprintsRoundTripAndStrictDecode(t *testing.T) {
	p := New(Config{})
	p.Shard(0).RecordFootprint(ClassFast, OutcomeCommit, 8, 7, 12)
	p.Reset()
	p.Shard(1).RecordFootprint(ClassSub, OutcomeConflict, 3, 2, 4)

	var b strings.Builder
	if err := p.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSeries(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Footprints) != 2 {
		t.Fatalf("round trip lost footprint rows: %+v", got.Footprints)
	}
	if got.Footprints[0].Class != "fast" || got.Footprints[0].ReadP99 < 8 {
		t.Fatalf("fast/commit row mangled: %+v", got.Footprints[0])
	}

	// Strictness: an unknown field means the document is not a profile —
	// the reconciliation consumer must fail loudly, not decode garbage.
	if _, err := DecodeSeries(strings.NewReader(`{"footprints": [], "samples": []}`)); err == nil {
		t.Error("unknown field decoded without error")
	}
}
