// Testdata for htmregion's walk into the real tooling packages: the
// findings land in the callees' files, so TestHTMRegionWalksTooling checks
// them there instead of through want comments.
package tooling

import (
	"repro/internal/abort"
	"repro/internal/htm"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/trace"
)

// bad: each call reaches a clock read, a lock, or an allocation.
func queries(eng *htm.Engine, sink *trace.Sink, p *prof.Profile, reg *obs.Registry) {
	eng.Execute(0, func(t *htm.Txn) {
		_ = trace.Now()
		sink.Mark("in-window")
		_ = p.TopK(4)
		_ = p.Shard(0)
		reg.Register("sys", obs.Source{})
		var snap obs.Snapshot
		reg.Sample(&snap)
		t.Write(0, 1)
	})
}

// good: the record hooks are plain stores into the calling thread's ring
// or shard, with a timestamp captured before the window opens.
func records(eng *htm.Engine, buf *trace.Buffer, ps *prof.Shard) {
	ts := trace.Now()
	eng.Execute(0, func(t *htm.Txn) {
		t.Write(0, 1)
		buf.Record(ts, trace.EvBegin, 1, 0, 0, 0)
		buf.RecordMark(ts, trace.EvRingPub, 0)
		ps.RecordConflict(7)
		ps.RecordCapacity(7)
		ps.RecordFootprint(prof.ClassFast, abort.None, 2, 1, 1)
	})
}
