package analysis

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/prof"
)

func TestFootprintBounds(t *testing.T) {
	bounds := FootprintBounds(loadProgram(t, "./testdata/src/reconcile"))
	if len(bounds) != 2 {
		t.Fatalf("got %d bodies, want 2: %+v", len(bounds), bounds)
	}
	var maxRead, maxWrite int64
	for _, b := range bounds {
		if b.ReadUnbounded || b.WriteUnbounded {
			t.Fatalf("unexpected unbounded body at %s: %+v", b.Pos, b)
		}
		if b.ReadLines > maxRead {
			maxRead = b.ReadLines
		}
		if b.WriteLines > maxWrite {
			maxWrite = b.WriteLines
		}
	}
	// update's 64-iteration stride-8 loop touches one line per iteration.
	if maxRead != 64 || maxWrite != 64 {
		t.Fatalf("max bounds = (%d reads, %d writes), want (64, 64)", maxRead, maxWrite)
	}
}

func TestReconcileProfile(t *testing.T) {
	prog := loadProgram(t, "./testdata/src/reconcile")

	within := prof.FootprintStat{
		Class: "fast", Outcome: "commit", Count: 10,
		ReadP99: 64 + ReadMarginLines, WriteP99: 64 + WriteMarginLines,
	}
	mism, err := ReconcileProfile(prog, &prof.Series{Footprints: []prof.FootprintStat{within}})
	if err != nil {
		t.Fatal(err)
	}
	if len(mism) != 0 {
		t.Fatalf("within-margin row produced mismatches: %v", mism)
	}

	beyond := prof.FootprintStat{
		Class: "fast", Outcome: "capacity", Count: 3,
		ReadP99: 64 + ReadMarginLines + 1, WriteP99: 64 + WriteMarginLines + 9,
	}
	mism, err = ReconcileProfile(prog, &prof.Series{Footprints: []prof.FootprintStat{within, beyond}})
	if err != nil {
		t.Fatal(err)
	}
	if len(mism) != 2 {
		t.Fatalf("got %d mismatches, want read+write: %v", len(mism), mism)
	}
	read, write := mism[0], mism[1]
	if read.Kind != "read" || read.Observed != 64+ReadMarginLines+1 || read.Static != 64 || read.Allowed != 64+ReadMarginLines {
		t.Errorf("read mismatch fields wrong: %+v", read)
	}
	if write.Kind != "write" || write.Observed != 64+WriteMarginLines+9 || write.Allowed != 64+WriteMarginLines {
		t.Errorf("write mismatch fields wrong: %+v", write)
	}
	if s := read.String(); !strings.Contains(s, "underestimates") || !strings.Contains(s, "capacity") {
		t.Errorf("mismatch message lacks diagnosis: %q", s)
	}

	// A profile with no footprint rows is an error, not a vacuous pass.
	if _, err := ReconcileProfile(prog, &prof.Series{}); err == nil {
		t.Error("empty profile reconciled without error")
	}

	// A program with no transaction bodies has nothing to check against.
	if _, err := ReconcileProfile(loadProgram(t, "repro/internal/tm"), &prof.Series{Footprints: []prof.FootprintStat{within}}); err == nil {
		t.Error("body-less program reconciled without error")
	}
}

// An unbounded body makes its dimension unfalsifiable: by then txfootprint
// has already demanded a Pause partition or a bigtx rationale, so
// reconciliation must not pile on.
func TestReconcileUnboundedUnfalsifiable(t *testing.T) {
	prog := loadProgram(t, "./testdata/src/txfootprint")
	huge := prof.FootprintStat{
		Class: "fast", Outcome: "commit", Count: 1,
		ReadP99: 1 << 30, WriteP99: 1 << 30,
	}
	mism, err := ReconcileProfile(prog, &prof.Series{Footprints: []prof.FootprintStat{huge}})
	if err != nil {
		t.Fatal(err)
	}
	if len(mism) != 0 {
		t.Fatalf("unbounded program still produced mismatches: %v", mism)
	}
}

// The document parthtm-bench -prof-out writes (prof.Profile.WriteJSON) is
// the one -prof reads: a recorded session reconciles, and a profile that
// recorded no footprint is rejected rather than passing vacuously.
func TestReconcileWrittenProfile(t *testing.T) {
	prog := loadProgram(t, "./testdata/src/reconcile")
	reconcile := func(p *prof.Profile) ([]FootprintMismatch, error) {
		var doc bytes.Buffer
		if err := p.WriteJSON(&doc); err != nil {
			t.Fatal(err)
		}
		series, err := prof.DecodeSeries(&doc)
		if err != nil {
			t.Fatalf("the written document does not decode: %v", err)
		}
		return ReconcileProfile(prog, series)
	}

	p := prof.New(prof.Config{})
	p.Shard(0).RecordFootprint(prof.ClassFast, prof.OutcomeCommit, 64, 64, 8)
	p.Reset() // a sweep's row boundary must not lose the session's rows
	if mism, err := reconcile(p); err != nil || len(mism) != 0 {
		t.Fatalf("recorded session: mismatches %v, err %v; want a clean reconciliation", mism, err)
	}
	p.Shard(0).RecordFootprint(prof.ClassSub, prof.OutcomeCapacity, 64+ReadMarginLines+1, 1, 8)
	if mism, err := reconcile(p); err != nil || len(mism) != 1 || mism[0].Kind != "read" {
		t.Fatalf("underestimated read footprint: mismatches %v, err %v; want one read mismatch", mism, err)
	}
	if _, err := reconcile(prof.New(prof.Config{})); err == nil {
		t.Fatal("a profile with no footprint rows reconciled without error")
	}
}
