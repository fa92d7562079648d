package trace

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// scriptedSink builds a sink holding a small, fully-known event stream:
// thread 0 runs one transaction that aborts twice (conflict, capacity)
// and commits on the software path; thread 1 commits first-try on HTM
// after a lemming wait and an escalation.
func scriptedSink() *Sink {
	s := NewSink(64)
	b0 := s.Thread(0)
	tx0 := uint64(0)<<32 | 1
	b0.Record(100, EvBegin, tx0, 0, 0, 0)
	b0.Record(110, EvPathFast, tx0, 0, 0, 0)
	b0.Record(200, EvHWAbort, tx0, 0, CauseConflict, 0)
	b0.Record(300, EvHWAbort, tx0, 0, CauseCapacity, 0)
	b0.Record(310, EvPathPart, tx0, 0, 0, 0)
	b0.Record(320, EvSubBegin, tx0, 0, 0, 0)
	b0.Record(350, EvSubCommit, tx0, 0, 0, 0)
	b0.Record(360, EvLockAcq, tx0, 2, 0, 0)
	b0.Record(380, EvRingPub, tx0, 0, 0, 0)
	b0.Record(390, EvLockRel, tx0, 2, 0, 0)
	b0.Record(400, EvCommit, tx0, 0, 0, PathSW)

	b1 := s.Thread(1)
	tx1 := uint64(1)<<32 | 1
	b1.Record(120, EvBegin, tx1, 0, 0, 0)
	b1.Record(130, EvLemmingEnter, tx1, 0, 0, 0)
	b1.Record(180, EvLemmingExit, tx1, 0, 0, 0)
	b1.Record(190, EvEscalate, tx1, 1, 0, 0)
	b1.Record(250, EvCommit, tx1, 0, 0, PathHTM)

	s.Mark("scripted-run")
	return s
}

func TestWriteChromeShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, scriptedSink()); err != nil {
		t.Fatal(err)
	}
	var tr ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("emitted trace is not JSON: %v", err)
	}

	count := map[string]int{}
	var threads []int
	for _, e := range tr.TraceEvents {
		count[e.Ph+"/"+e.Name]++
		if e.Ph == "M" && e.Name == "thread_name" {
			threads = append(threads, e.TID)
		}
	}
	if len(threads) != 2 {
		t.Fatalf("thread_name metadata for %v, want 2 worker tracks", threads)
	}
	if count["M/process_name"] != 1 {
		t.Error("missing process_name metadata")
	}
	// Per-worker lifecycle instants.
	for _, want := range []string{"i/begin", "i/hw-abort", "i/path-fast", "i/path-partitioned",
		"i/sub-begin", "i/sub-commit", "i/lock-acquire", "i/lock-release", "i/ring-publish",
		"i/lemming-enter", "i/lemming-exit", "i/escalate"} {
		if count[want] == 0 {
			t.Errorf("missing %s event", want)
		}
	}
	// Transaction slices: one "tx sw" and one "tx htm" outer slice, three
	// attempt slices on thread 0 (two aborts + final) and one on thread 1.
	if count["X/tx sw"] != 1 || count["X/tx htm"] != 1 {
		t.Errorf("outer tx slices = %v", count)
	}
	attempts := 0
	for k, n := range count {
		if strings.HasPrefix(k, "X/attempt") {
			attempts += n
		}
	}
	if attempts != 4 {
		t.Errorf("attempt slices = %d, want 4", attempts)
	}
	// Flow chain: tx0 aborted twice → s, t, f all present with one id.
	if count["s/retry"] != 1 || count["t/retry"] != 1 || count["f/retry"] != 1 {
		t.Errorf("flow events = s:%d t:%d f:%d, want 1/1/1",
			count["s/retry"], count["t/retry"], count["f/retry"])
	}
	if count["i/scripted-run"] != 1 {
		t.Error("missing mark instant")
	}

	// Timestamps are microseconds: the 100ns begin must appear as 0.1.
	for _, e := range tr.TraceEvents {
		if e.Ph == "i" && e.Name == "begin" && e.TID == 0 {
			if e.TS != 0.1 {
				t.Errorf("begin ts = %v µs, want 0.1", e.TS)
			}
		}
	}
}

func TestWriteChromeDanglingEvents(t *testing.T) {
	s := NewSink(64)
	b := s.Thread(0)
	// Commit whose begin was overwritten, then an in-flight begin at cutoff.
	b.Record(100, EvCommit, 7, 0, 0, PathGL)
	b.Record(200, EvBegin, 8, 0, 0, 0)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, s); err != nil {
		t.Fatal(err)
	}
	var tr ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.TraceEvents {
		if e.Ph == "X" {
			t.Fatalf("dangling events must not produce slices, got %q", e.Name)
		}
	}
}

func TestWriteText(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, scriptedSink()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"t00 begin", "t00 hw-abort", "cause=conflict", "cause=capacity",
		"t00 commit", "path=sw", "t01 commit", "path=htm",
		"t01 lemming-exit", "kind=starve", `mark "scripted-run"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text dump missing %q:\n%s", want, out)
		}
	}
	// Global timestamp order (first column is the nanosecond timestamp).
	last := int64(-1)
	for _, ln := range strings.Split(strings.TrimSpace(out), "\n") {
		fields := strings.Fields(ln)
		if len(fields) == 0 {
			continue
		}
		ts, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			t.Fatalf("unparseable timestamp in line %q", ln)
		}
		if ts < last {
			t.Fatalf("text dump out of order at %q", ln)
		}
		last = ts
	}
}

func TestWriteTextRingWrapNote(t *testing.T) {
	s := NewSink(8)
	b := s.Thread(0)
	for i := int64(0); i < 20; i++ {
		b.Record(i, EvBegin, uint64(i), 0, 0, 0)
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "12 events overwritten") {
		t.Fatal("text dump must note ring overwrite")
	}
}
