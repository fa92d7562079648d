package trace

import (
	"testing"

	"repro/internal/abort"
	"repro/internal/perthread"
)

func TestNilSinkAndBufferAreNoOps(t *testing.T) {
	var s *Sink
	if s.Thread(3) != nil || s.Lat(3) != nil {
		t.Fatal("nil sink must hand out nil shards")
	}
	s.Mark("ignored")
	if s.Marks() != nil || s.Events() != nil || s.Dropped() != 0 {
		t.Fatal("nil sink accessors must return zero values")
	}

	var b *Buffer
	b.Record(1, EvBegin, 1, 0, 0, 0)
	b.RecordMark(1, EvWatchdog, 0)
	if b.Len() != 0 || b.Cap() != 0 || b.Dropped() != 0 || b.Thread() != 0 {
		t.Fatal("nil buffer accessors must return zeros")
	}
	if got := b.Events(nil); got != nil {
		t.Fatal("nil buffer Events must pass out unchanged")
	}
}

func TestRingOverwriteKeepsNewest(t *testing.T) {
	s := NewSink(8)
	b := s.Thread(0)
	if b.Cap() != 8 {
		t.Fatalf("Cap = %d, want 8", b.Cap())
	}
	for i := int64(1); i <= 20; i++ {
		b.Record(i, EvBegin, uint64(i), 0, 0, 0)
	}
	if b.Len() != 8 {
		t.Fatalf("Len = %d, want 8", b.Len())
	}
	if b.Dropped() != 12 {
		t.Fatalf("Dropped = %d, want 12", b.Dropped())
	}
	ev := b.Events(nil)
	if len(ev) != 8 {
		t.Fatalf("Events len = %d, want 8", len(ev))
	}
	for i, e := range ev {
		if want := int64(13 + i); e.TS != want {
			t.Fatalf("event %d TS = %d, want %d (ring must keep newest)", i, e.TS, want)
		}
	}
}

func TestSinkCapRounding(t *testing.T) {
	if got := NewSink(0).Thread(0).Cap(); got != DefaultCap {
		t.Errorf("cap(0) = %d, want DefaultCap %d", got, DefaultCap)
	}
	if got := NewSink(100).Thread(0).Cap(); got != 128 {
		t.Errorf("cap(100) = %d, want 128", got)
	}
	if got := NewSink(64).Thread(0).Cap(); got != 64 {
		t.Errorf("cap(64) = %d, want 64", got)
	}
}

func TestSinkThreadGrowthStable(t *testing.T) {
	s := NewSink(16)
	b3 := s.Thread(3)
	if b3.Thread() != 3 {
		t.Fatalf("thread id = %d, want 3", b3.Thread())
	}
	b0 := s.Thread(0)
	if s.Thread(3) != b3 || s.Thread(0) != b0 {
		t.Fatal("growth must preserve existing buffer identity")
	}
	l2 := s.Lat(2)
	if s.Lat(5) == nil || s.Lat(2) != l2 {
		t.Fatal("latency shard growth must preserve identity")
	}
}

func TestSinkConcurrentGrowth(t *testing.T) {
	s := NewSink(16)
	const n = 16
	bufs := make([]*Buffer, n)
	perthread.Run(n, func(id int) {
		b := s.Thread(id)
		l := s.Lat(id)
		for j := 0; j < 100; j++ {
			b.Record(Now(), EvBegin, uint64(j), 0, 0, 0)
			l.Path[PathHTM].Add(int64(j))
		}
		bufs[id] = b
	})
	for i := 0; i < n; i++ {
		if s.Thread(i) != bufs[i] {
			t.Fatalf("thread %d buffer identity changed after concurrent growth", i)
		}
		if s.Thread(i).Len() != 16 {
			t.Fatalf("thread %d Len = %d, want full ring", i, s.Thread(i).Len())
		}
	}
	snap := s.Latency()
	if snap.Path[PathHTM].Count != n*100 {
		t.Fatalf("latency count = %d, want %d", snap.Path[PathHTM].Count, n*100)
	}
}

func TestEventsGloballySorted(t *testing.T) {
	s := NewSink(16)
	s.Thread(1).Record(30, EvBegin, 1, 0, 0, 0)
	s.Thread(0).Record(10, EvBegin, 2, 0, 0, 0)
	s.Thread(1).Record(50, EvCommit, 1, 0, 0, PathHTM)
	s.Thread(0).Record(20, EvCommit, 2, 0, 0, PathSW)
	s.Thread(2).Record(20, EvBegin, 3, 0, 0, 0)
	ev := s.Events()
	if len(ev) != 5 {
		t.Fatalf("Events len = %d, want 5", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].TS < ev[i-1].TS {
			t.Fatalf("events out of order at %d: %d after %d", i, ev[i].TS, ev[i-1].TS)
		}
		if ev[i].TS == ev[i-1].TS && ev[i].Thread < ev[i-1].Thread {
			t.Fatalf("tie at ts=%d not broken by thread", ev[i].TS)
		}
	}
}

func TestLatencySnapshotAndReset(t *testing.T) {
	s := NewSink(16)
	l := s.Lat(0)
	for i := 0; i < 100; i++ {
		l.Path[PathHTM].Add(1000)
		l.Abort[abort.Conflict].Add(50)
	}
	l2 := s.Lat(1)
	for i := 0; i < 100; i++ {
		l2.Path[PathHTM].Add(3000)
	}
	snap := s.Latency()
	if snap.Path[PathHTM].Count != 200 {
		t.Fatalf("merged path count = %d, want 200", snap.Path[PathHTM].Count)
	}
	if snap.Path[PathHTM].P50 < 900 || snap.Path[PathHTM].P50 > 1100 {
		t.Errorf("p50 = %d, want ~1000", snap.Path[PathHTM].P50)
	}
	if snap.Path[PathHTM].P99 < 2800 || snap.Path[PathHTM].P99 > 3200 {
		t.Errorf("p99 = %d, want ~3000", snap.Path[PathHTM].P99)
	}
	if snap.Abort[abort.Conflict].Count != 100 {
		t.Fatalf("abort count = %d, want 100", snap.Abort[abort.Conflict].Count)
	}
	if snap.Path[PathGL].Count != 0 {
		t.Fatal("untouched path must stay empty")
	}
	s.ResetLatency()
	snap = s.Latency()
	if snap.Path[PathHTM].Count != 0 || snap.Abort[abort.Conflict].Count != 0 {
		t.Fatal("ResetLatency must zero every shard")
	}
}

func TestKindAndEnumNames(t *testing.T) {
	seen := map[string]bool{}
	for k := EvNone; k < kindCount; k++ {
		name := k.String()
		if name == "" || seen[name] {
			t.Fatalf("kind %d has empty or duplicate name %q", k, name)
		}
		seen[name] = true
	}
	if Kind(200).String() != "kind(200)" {
		t.Error("out-of-range kind must format numerically")
	}
	if PathName(PathHTM) != "htm" || PathName(PathSW) != "sw" || PathName(PathGL) != "gl" {
		t.Error("path names changed; exporter and result tables depend on them")
	}
	if PathName(9) == "" {
		t.Error("out-of-range path must format numerically")
	}
}

func TestMarks(t *testing.T) {
	s := NewSink(16)
	s.Mark("a")
	s.Mark("b")
	m := s.Marks()
	if len(m) != 2 || m[0].Label != "a" || m[1].Label != "b" {
		t.Fatalf("marks = %+v", m)
	}
	if m[1].TS < m[0].TS {
		t.Fatal("mark timestamps must be monotone")
	}
	m[0].Label = "mutated"
	if s.Marks()[0].Label != "a" {
		t.Fatal("Marks must return a copy")
	}
}

// BenchmarkRecord pins the hot-path cost and, more importantly, proves
// recording is allocation-free.
func BenchmarkRecord(b *testing.B) {
	s := NewSink(1 << 12)
	buf := s.Thread(0)
	ts := Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Record(ts, EvBegin, uint64(i), 0, 0, 0)
	}
	if testing.AllocsPerRun(1000, func() {
		buf.Record(ts, EvCommit, 1, 0, 0, PathHTM)
	}) != 0 {
		b.Fatal("Record must not allocate")
	}
}

func BenchmarkRecordNil(b *testing.B) {
	var buf *Buffer
	ts := Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Record(ts, EvBegin, uint64(i), 0, 0, 0)
	}
}
