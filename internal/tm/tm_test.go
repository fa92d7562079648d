package tm

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/abort"
)

func TestStatsCommitAndAbortTotals(t *testing.T) {
	var s Stats
	sh := s.Shard(0)
	sh.CommitsHTM.Add(2)
	sh.CommitsSW.Add(3)
	s.Shard(1).CommitsGL.Add(4)
	if got := s.Commits(); got != 9 {
		t.Fatalf("Commits = %d", got)
	}
	sh.RecordAbort(abort.Conflict)
	sh.RecordAbort(abort.Capacity)
	s.Shard(1).RecordAbort(abort.Capacity)
	sh.RecordAbort(abort.Explicit)
	sh.RecordAbort(abort.Other)
	if got := s.Aborts(); got != 5 {
		t.Fatalf("Aborts = %d", got)
	}
	if got := s.Snapshot().AbortsCapacity; got != 2 {
		t.Fatalf("capacity = %d", got)
	}
	// abort.None must not be counted.
	sh.RecordAbort(abort.None)
	if got := s.Aborts(); got != 5 {
		t.Fatalf("Aborts after abort.None = %d", got)
	}
}

func TestStatsSnapshotAndReset(t *testing.T) {
	var s Stats
	s.Shard(0).CommitsHTM.Inc()
	s.Shard(0).RecordAbort(abort.Conflict)
	s.Shard(2).AddSerial(3 * time.Millisecond)
	snap := s.Snapshot()
	if snap.CommitsHTM != 1 || snap.AbortsConflict != 1 || snap.SerialNanos != uint64(3*time.Millisecond) {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Commits() != 1 || snap.Aborts() != 1 {
		t.Fatal("snapshot totals wrong")
	}
	sh := s.Shard(0) // shard pointers stay valid across Reset
	s.Reset()
	if s.Commits() != 0 || s.Aborts() != 0 || s.SerialNanos() != 0 {
		t.Fatal("Reset incomplete")
	}
	sh.CommitsHTM.Inc()
	if s.Commits() != 1 {
		t.Fatal("pre-Reset shard pointer no longer feeds Snapshot")
	}
}

// TestShardAndSnapshotCoverEveryCounter checks the array view that Reset,
// Snapshot and Delta walk, and that each of them reaches every counter.
// Both instantiations of the counter list must hold numCounters eight-byte
// fields at offsets 8*i, so element i of the view is field i; the values
// below are set and read by reflection, field by field, not through it.
func TestShardAndSnapshotCoverEveryCounter(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(counters[Counter]{}), reflect.TypeOf(Snapshot{})} {
		if got := typ.NumField(); got != int(numCounters) {
			t.Fatalf("%s has %d fields, numCounters is %d", typ, got, numCounters)
		}
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Offset != uintptr(8*i) || f.Type.Size() != 8 {
				t.Errorf("%s field %s: offset %d, size %d; want offset %d, size 8",
					typ, f.Name, f.Offset, f.Type.Size(), 8*i)
			}
		}
	}
	if f := reflect.TypeOf(Shard{}).Field(0); !f.Anonymous || f.Offset != 0 {
		t.Fatalf("Shard's first field is %s at offset %d, want the embedded counter list at 0", f.Name, f.Offset)
	}
	counter := func(sh *Shard, i int) *Counter {
		return reflect.ValueOf(sh).Elem().Field(0).Field(i).Addr().Interface().(*Counter)
	}
	field := func(snap Snapshot, i int) uint64 { return reflect.ValueOf(snap).Field(i).Uint() }

	var s Stats
	// Distinct values in two shards: counter i carries i+1 in shard 0 and
	// 10*(i+1) in shard 3, so the snapshot must show 11*(i+1).
	for si, scale := range map[int]uint64{0: 1, 3: 10} {
		for i := 0; i < int(numCounters); i++ {
			counter(s.Shard(si), i).Add(scale * uint64(i+1))
		}
	}
	snap, shard3 := s.Snapshot(), s.Shard(3).Snapshot()
	var prev Snapshot
	for i := 0; i < int(numCounters); i++ {
		reflect.ValueOf(&prev).Elem().Field(i).SetUint(uint64(i + 1))
	}
	up, down := snap.Delta(prev), prev.Delta(snap)
	for i := 0; i < int(numCounters); i++ {
		name := reflect.TypeOf(snap).Field(i).Name
		if got, want := field(snap, i), 11*uint64(i+1); got != want {
			t.Errorf("Snapshot %s = %d, want %d", name, got, want)
		}
		if got, want := field(shard3, i), 10*uint64(i+1); got != want {
			t.Errorf("Shard.Snapshot %s = %d, want %d", name, got, want)
		}
		if got, want := field(up, i), 10*uint64(i+1); got != want {
			t.Errorf("Delta %s = %d, want %d", name, got, want)
		}
		if got := field(down, i); got != 0 {
			t.Errorf("Delta from a larger snapshot: %s = %d, want 0", name, got)
		}
	}

	s.Reset()
	for _, si := range []int{0, 3} {
		for i := 0; i < int(numCounters); i++ {
			if got := counter(s.Shard(si), i).Load(); got != 0 {
				t.Errorf("Reset left shard %d counter %d = %d", si, i, got)
			}
		}
	}
}

// TestShardPadding: a shard spans three whole cache lines (192 bytes), so two threads'
// shards never share one.
func TestShardPadding(t *testing.T) {
	if sz := reflect.TypeOf(Shard{}).Size(); sz%64 != 0 || sz != 192 {
		t.Fatalf("Shard size %d, want 192: three whole 64-byte lines", sz)
	}
}

// TestStatsParallelHammer drives every counter from many goroutines — one
// per shard, the single-writer discipline the systems follow — while other
// goroutines take snapshots mid-flight, and asserts the final Snapshot
// equals the per-thread activity exactly. Run with -race this also proves
// the load+store increment discipline is data-race-free against concurrent
// readers.
func TestStatsParallelHammer(t *testing.T) {
	const threads = 8
	const perThread = 5000
	var s Stats
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Concurrent snapshot readers: totals observed mid-flight must never
	// exceed the final totals and never go backwards.
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := s.Snapshot().Commits()
				if got < last {
					t.Errorf("snapshot went backwards: %d after %d", got, last)
					return
				}
				last = got
			}
		}()
	}

	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			sh := s.Shard(th)
			for i := 0; i < perThread; i++ {
				switch i % 3 {
				case 0:
					sh.CommitsHTM.Inc()
				case 1:
					sh.CommitsSW.Inc()
				case 2:
					sh.CommitsGL.Inc()
				}
				sh.RecordAbort(abort.Reason(1 + i%4))
				sh.AddSerial(time.Nanosecond)
			}
		}(th)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	snap := s.Snapshot()
	if got, want := snap.Commits(), uint64(threads*perThread); got != want {
		t.Fatalf("Commits = %d, want %d", got, want)
	}
	if got, want := snap.Aborts(), uint64(threads*perThread); got != want {
		t.Fatalf("Aborts = %d, want %d", got, want)
	}
	if got, want := snap.SerialNanos, uint64(threads*perThread); got != want {
		t.Fatalf("SerialNanos = %d, want %d", got, want)
	}
	// Per-shard activity must sum to the whole: no counts leaked across
	// shards, none lost.
	var perShard uint64
	for th := 0; th < threads; th++ {
		sh := s.Shard(th)
		perShard += sh.CommitsHTM.Load() + sh.CommitsSW.Load() + sh.CommitsGL.Load()
	}
	if perShard != snap.Commits() {
		t.Fatalf("sum of shards %d != snapshot %d", perShard, snap.Commits())
	}
}

func TestSpinScalesRoughlyLinearly(t *testing.T) {
	// Warm up.
	Spin(10000)
	t0 := time.Now()
	for i := 0; i < 50; i++ {
		Spin(1000)
	}
	small := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < 50; i++ {
		Spin(10000)
	}
	big := time.Since(t0)
	if big < small {
		t.Fatalf("Spin(10000) total %v faster than Spin(1000) total %v", big, small)
	}
}

// TestAccessorsResnapshotButSnapshotIsCoherent pins the contract the doc
// comment on the accessors states: each accessor call re-sums the live
// shards (two calls straddling an increment disagree), while a Snapshot,
// once taken, is one coherent value copy — every figure derived from it
// stays mutually consistent no matter what the shards do afterwards. A
// report line must therefore be built from a single Snapshot.
func TestAccessorsResnapshotButSnapshotIsCoherent(t *testing.T) {
	var st Stats
	sh := st.Shard(0)
	sh.CommitsHTM.Inc()
	sh.AbortsConflict.Inc()

	snap := st.Snapshot()
	before := st.Commits()

	// The run moves on underneath the accessors...
	sh.CommitsSW.Inc()
	sh.AbortsCapacity.Inc()

	if after := st.Commits(); after == before {
		t.Fatalf("accessor calls must re-sum the live shards: %d == %d", after, before)
	}
	// ...but the snapshot taken earlier is frozen, and self-consistent:
	if snap.Commits() != 1 || snap.Aborts() != 1 {
		t.Fatalf("snapshot drifted after it was taken: commits=%d aborts=%d",
			snap.Commits(), snap.Aborts())
	}
	if snap.Commits() != snap.CommitsHTM+snap.CommitsSW+snap.CommitsGL {
		t.Fatal("snapshot-derived sum inconsistent with its own fields")
	}
}
