package obs

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/governor"
	"repro/internal/tm"
	"repro/internal/trace"
)

// flightFixture builds a recorder over one full source and a trace sink
// with a temp dump dir, the background sampler NOT started — tests drive
// sampleOnce by hand for determinism.
func flightFixture(t *testing.T) (*FlightRecorder, Source, string) {
	t.Helper()
	dir := t.TempDir()
	reg := NewRegistry()
	src := fullSource(t)
	reg.Register("sys", src)
	f := NewFlightRecorder(reg, FlightConfig{Dir: dir})
	f.SetSink(trace.NewSink(64))
	return f, src, dir
}

func TestFlightAlarmArmsAndFlushDumps(t *testing.T) {
	f, _, dir := flightFixture(t)
	f.sampleOnce()
	f.sampleOnce()
	if f.Armed() != "" {
		t.Fatalf("recorder armed with no trigger: %q", f.Armed())
	}

	// Flushing while disarmed writes nothing.
	if name, err := f.Flush("quiet"); err != nil || name != "" {
		t.Fatalf("disarmed Flush = %q, %v", name, err)
	}

	f.NoteAlarm(governor.Alarm{Kind: governor.AlarmStall})
	if got := f.Armed(); got != "watchdog-stall" {
		t.Fatalf("Armed = %q, want watchdog-stall", got)
	}
	name, err := f.Flush("phase1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(name, "flight-watchdog-stall-phase1-") {
		t.Fatalf("artifact basename = %q", name)
	}
	if f.Armed() != "" {
		t.Fatalf("Flush did not disarm: %q", f.Armed())
	}
	if d := f.Dumps(); len(d) != 1 || d[0] != name {
		t.Fatalf("Dumps = %v", d)
	}

	// The trace artifact must decode through the same checker the CLI
	// -trace-check uses.
	raw, err := os.ReadFile(filepath.Join(dir, name+".trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.DecodeChrome(raw); err != nil {
		t.Fatalf("flight trace artifact does not decode: %v", err)
	}

	// The metrics CSV carries the pinned header and one row per ring
	// sample (two sampleOnce calls, one system).
	csv, err := os.ReadFile(filepath.Join(dir, name+".metrics.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(csv), "\n"), "\n")
	if lines[0] != flightCSVHeader {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if len(lines) != 3 {
		t.Fatalf("CSV rows = %d, want 2 samples", len(lines)-1)
	}
	cols := strings.Count(flightCSVHeader, ",") + 1
	for _, ln := range lines[1:] {
		if got := strings.Count(ln, ",") + 1; got != cols {
			t.Fatalf("CSV row has %d columns, header has %d: %q", got, cols, ln)
		}
	}
}

// The flight CSV is the repository's only counter time series: its header
// must carry one column per tm.Snapshot counter, in declaration order, plus
// the live gauges.
func TestFlightCSVHeaderCoversSnapshot(t *testing.T) {
	want := []string{"ts_ns", "seq", "system"}
	st := reflect.TypeOf(tm.Snapshot{})
	for i := 0; i < st.NumField(); i++ {
		name, _, _ := strings.Cut(st.Field(i).Tag.Get("json"), ",")
		want = append(want, name)
	}
	want = append(want, "inflight", "degraded", "pressure")
	if got := strings.Split(flightCSVHeader, ","); !reflect.DeepEqual(got, want) {
		t.Fatalf("flight CSV header\n got %v\nwant %v", got, want)
	}
}

func TestFlightCooldown(t *testing.T) {
	f, _, _ := flightFixture(t)
	f.sampleOnce()
	f.NoteAlarm(governor.Alarm{Kind: governor.AlarmStall})
	if name, err := f.Flush("a"); err != nil || name == "" {
		t.Fatalf("first Flush = %q, %v", name, err)
	}
	f.NoteAlarm(governor.Alarm{Kind: governor.AlarmStall})
	if name, err := f.Flush("b"); err != nil || name != "" {
		t.Fatalf("Flush within cooldown wrote %q, %v", name, err)
	}
	if len(f.Dumps()) != 1 {
		t.Fatalf("cooldown did not suppress: %v", f.Dumps())
	}
	// DumpNow ignores the cooldown (SIGQUIT path).
	if name, err := f.DumpNow("sigquit"); err != nil || name == "" {
		t.Fatalf("DumpNow = %q, %v", name, err)
	}
}

// TestFlightBreakerBurstTrigger drives the counter-delta trigger: a burst
// of breaker trips between two samples arms the recorder without any
// watchdog involvement.
func TestFlightBreakerBurstTrigger(t *testing.T) {
	f, src, _ := flightFixture(t)
	f.sampleOnce() // baseline
	src.Stats.Shard(0).BreakerTrips.Add(breakerBurst - 1)
	f.sampleOnce()
	if f.Armed() != "" {
		t.Fatalf("armed below burst threshold: %q", f.Armed())
	}
	src.Stats.Shard(0).BreakerTrips.Add(breakerBurst)
	f.sampleOnce()
	if got := f.Armed(); got != "breaker-storm-sys" {
		t.Fatalf("Armed = %q, want breaker-storm-sys", got)
	}
}

// TestFlightPhaseDegraded covers the third trigger and reason sanitizing.
func TestFlightPhaseDegraded(t *testing.T) {
	f, _, _ := flightFixture(t)
	f.sampleOnce()
	f.ArmPhaseDegraded("Part-HTM", "storm/1")
	if got := f.Armed(); got != "degraded-Part-HTM-storm_1" {
		t.Fatalf("Armed = %q", got)
	}
	name, err := f.Flush("")
	if err != nil || name == "" {
		t.Fatalf("Flush = %q, %v", name, err)
	}
}

// TestFlightRingWraps checks the ring keeps only the newest ringCap
// samples, oldest first in the CSV.
func TestFlightRingWraps(t *testing.T) {
	const extra = 6
	f, _, dir := flightFixture(t)
	for i := 0; i < ringCap+extra; i++ {
		f.sampleOnce()
	}
	name, err := f.DumpNow("wrap")
	if err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(filepath.Join(dir, name+".metrics.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(csv), "\n"), "\n")
	if len(lines) != 1+ringCap {
		t.Fatalf("CSV rows = %d, want ringCap=%d", len(lines)-1, ringCap)
	}
	// seq column (index 1) must be the last ringCap samples in order.
	for i, line := range lines[1:] {
		if got, want := strings.Split(line, ",")[1], strconv.Itoa(extra+1+i); got != want {
			t.Fatalf("row %d seq = %s, want %s", i, got, want)
		}
	}
}
