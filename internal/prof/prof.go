// Package prof is the abort-attribution profiler: where tmtrace records
// *when* and *why* transactions abort, prof records *where* — which cache
// lines are conflict hot spots, which associativity sets run hot, and how
// big transactional footprints actually are at commit and abort time. It
// only reports: no protocol decision reads it (Part-HTM's resource-abort
// learner sizes segments from htm.Txn.Footprint). It is the tool that makes
// the Dice/Harris/Kogan/Lev malloc-placement effect visible in the
// simulator (see the harness heatmap experiment).
//
// # Capture planes
//
// 1. Conflict attribution: every time a hardware transaction dooms a rival
// over a line (requester-wins invalidation), the requester records the
// line into its shard's bounded SpaceSaving sketch and bumps the line's
// associativity-set heat counter. Top-K hot lines fall out of merging the
// per-thread sketches.
//
// 2. Footprint profiling: at every commit and abort the engine records the
// transaction's read-line count, write-line count, and peak
// set occupancy into log-bucketed histograms (trace/hist), split by
// commit-path class (whole-hardware fast window vs sub-HTM window) and
// outcome (commit, or the abort cause).
//
// The package owns no goroutine and no clock: abort-rate trends over a run
// are the obs flight recorder's job, which samples every counter set
// through one Registry.Sample.
//
// # Memory model
//
// A Profile owns one Shard per hardware slot/thread, each cache-line
// padded. A Shard is single-writer — only the owning thread calls the
// Record* hooks — following exactly the tm.Stats / trace.Buffer
// discipline: recording is a bounded linear scan plus plain stores, no
// locks, no atomic read-modify-write, and no allocation. The Record*
// hooks are htmsafe by construction (the parthtm-vet htmregion walk
// passes their bodies inside hardware windows and flags the locks and
// allocations the merged queries and Shard lookup reach); they tolerate
// a nil receiver as a no-op, so the disabled path
// is a single branch. Merged queries (TopK, SetHeat, Footprints) must run
// after the writers have quiesced, exactly like trace exports.
package prof

import (
	"sync"

	"repro/internal/perthread"
	"repro/internal/trace/hist"
)

// Commit-path classes for footprint profiling. The values are stored in
// htm.Txn and travel through the Record hooks as plain uint8.
const (
	// ClassFast is a whole-hardware window (the fast path, HTM-GL's
	// single transaction, HLE's elided section, NOrecRH's hardware run).
	ClassFast uint8 = iota
	// ClassSub is a sub-HTM window of Part-HTM's partitioned path.
	ClassSub
	ClassCount
)

// ClassName returns the stable short name of a commit-path class.
func ClassName(c uint8) string {
	switch c {
	case ClassFast:
		return "fast"
	case ClassSub:
		return "sub"
	}
	return "class?"
}

// Footprint outcomes. OutcomeCommit is 0; the abort outcomes mirror the
// htm.AbortReason taxonomy value for value (Conflict=1 .. Other=4, pinned
// by a test) so the engine can cast the reason directly.
const (
	OutcomeCommit uint8 = iota
	OutcomeConflict
	OutcomeCapacity
	OutcomeExplicit
	OutcomeOther
	OutcomeCount
)

// OutcomeName returns the stable short name of a footprint outcome.
func OutcomeName(o uint8) string {
	switch o {
	case OutcomeCommit:
		return "commit"
	case OutcomeConflict:
		return "conflict"
	case OutcomeCapacity:
		return "capacity"
	case OutcomeExplicit:
		return "explicit"
	case OutcomeOther:
		return "other"
	}
	return "outcome?"
}

// footprint is one (class, outcome) cell's distributions.
type footprint struct {
	read  hist.Histogram // distinct monitored read lines
	write hist.Histogram // distinct write lines (monitored + thread-private)
	occ   hist.Histogram // peak associativity-set occupancy (ways)
}

// Shard is one thread's profiler cell: the conflict sketch, the per-set
// heat counters, and the footprint histograms. Only the owning thread may
// call the Record* hooks; any goroutine may run the merged queries after
// the writer has quiesced. The trailing padding keeps neighbouring
// shards' hot words on distinct cache lines.
type Shard struct {
	sketch  Sketch
	conHeat []uint64 // conflict events per associativity set
	capHeat []uint64 // capacity overflows per associativity set
	// Domain heat: conflict/capacity events per memory domain, populated
	// only when a domain router is attached (sharded-domain topologies).
	domCon []uint64
	domCap []uint64
	domOf  func(line uint32) int
	foot   [ClassCount][OutcomeCount]footprint
	thread int32
	_      [64]byte
}

// RecordConflict records one conflict event on line (owner thread only):
// the requester doomed a rival over it. Allocation-free and htmsafe by
// construction; nil receiver is a no-op.
func (s *Shard) RecordConflict(line uint32) {
	if s == nil {
		return
	}
	s.sketch.Observe(line)
	s.conHeat[line%uint32(len(s.conHeat))]++
	if s.domOf != nil {
		if d := s.domOf(line); d >= 0 && d < len(s.domCon) {
			s.domCon[d]++
		}
	}
}

// RecordCapacity records one capacity overflow on line — the access that
// exceeded the write-set ways or line budget (owner thread only).
// Allocation-free and htmsafe by construction; nil receiver is a no-op.
func (s *Shard) RecordCapacity(line uint32) {
	if s == nil {
		return
	}
	s.capHeat[line%uint32(len(s.capHeat))]++
	if s.domOf != nil {
		if d := s.domOf(line); d >= 0 && d < len(s.domCap) {
			s.domCap[d]++
		}
	}
}

// RecordFootprint records one transaction outcome's footprint: distinct
// read lines, write lines (monitored plus thread-private), and peak
// set occupancy, keyed by commit-path class and outcome (owner thread
// only). Allocation-free and htmsafe by construction; nil receiver is a
// no-op. Out-of-range class/outcome values are clamped rather than
// dropped so miscounts surface as visible skew, not silence.
func (s *Shard) RecordFootprint(class, outcome uint8, readLines, writeLines, occ int) {
	if s == nil {
		return
	}
	if class >= ClassCount {
		class = ClassCount - 1
	}
	if outcome >= OutcomeCount {
		outcome = OutcomeCount - 1
	}
	f := &s.foot[class][outcome]
	f.read.Add(int64(readLines))
	f.write.Add(int64(writeLines))
	f.occ.Add(int64(occ))
}

// Thread returns the shard's owning thread index.
func (s *Shard) Thread() int {
	if s == nil {
		return 0
	}
	return int(s.thread)
}

// reset clears the shard (after writers quiesced).
func (s *Shard) reset() {
	s.sketch.Reset()
	clear(s.conHeat)
	clear(s.capHeat)
	clear(s.domCon)
	clear(s.domCap)
	for c := range s.foot {
		for o := range s.foot[c] {
			f := &s.foot[c][o]
			f.read.Reset()
			f.write.Reset()
			f.occ.Reset()
		}
	}
}

// Config sizes a Profile. The zero value selects the defaults.
type Config struct {
	// TopK is the per-shard sketch capacity (DefaultTopK when <= 0).
	TopK int
	// Sets is the number of associativity sets tracked by the heat
	// counters; it should match the engine's WriteSets so set indices
	// line up (64, the htm.DefaultConfig value, when <= 0).
	Sets int
}

// DefaultSets matches htm.DefaultConfig's WriteSets so heat indices line
// up with the engine's capacity model out of the box.
const DefaultSets = 64

func (c Config) withDefaults() Config {
	if c.TopK <= 0 {
		c.TopK = DefaultTopK
	}
	if c.Sets <= 0 {
		c.Sets = DefaultSets
	}
	return c
}

// Profile owns the per-thread shards of one profiling session. A nil
// *Profile disables profiling everywhere it is plumbed. The hot path (the
// Record* hooks) touches only the calling thread's shard.
type Profile struct {
	cfg    Config
	shards perthread.Set[Shard]

	// Domain router (sharded-domain topologies): copied into every shard,
	// existing and future, under mu.
	mu    sync.Mutex
	domN  int
	domOf func(line uint32) int
}

// New creates a profile with the given configuration.
func New(cfg Config) *Profile {
	p := &Profile{cfg: cfg.withDefaults()}
	p.shards.Init(p.newShard)
	return p
}

// Config returns the profile's effective (defaulted) configuration.
func (p *Profile) Config() Config {
	if p == nil {
		return Config{}.withDefaults()
	}
	return p.cfg
}

// Shard returns thread id's profiler shard, growing the set as needed.
// Callers on a measured path must cache the pointer per thread (the
// engine does, at Begin). Returns nil from a nil profile.
func (p *Profile) Shard(id int) *Shard {
	if p == nil {
		return nil
	}
	return p.shards.Get(id)
}

func (p *Profile) newShard(id int) *Shard {
	sh := &Shard{
		conHeat: make([]uint64, p.cfg.Sets),
		capHeat: make([]uint64, p.cfg.Sets),
		thread:  int32(id),
	}
	sh.sketch = *NewSketch(p.cfg.TopK)
	p.mu.Lock()
	sh.route(p.domN, p.domOf)
	p.mu.Unlock()
	return sh
}

// all returns the current shard set.
func (p *Profile) all() []*Shard {
	if p == nil {
		return nil
	}
	return p.shards.All()
}

// TopK merges the per-thread sketches and returns the top k hot conflict
// lines (all merged entries when k <= 0). Writers must have quiesced.
func (p *Profile) TopK(k int) []HotLine {
	if p == nil {
		return nil
	}
	merged := NewSketch(p.cfg.TopK)
	for _, sh := range p.all() {
		merged.Merge(&sh.sketch)
	}
	top := merged.Top(nil)
	if k > 0 && len(top) > k {
		top = top[:k]
	}
	return top
}

// ConflictEvents returns the total conflict events observed across all
// shards (the denominator for sketch guarantees). Writers must have
// quiesced.
func (p *Profile) ConflictEvents() uint64 {
	var n uint64
	for _, sh := range p.all() {
		n += sh.sketch.Total()
	}
	return n
}

// SetHeat is one associativity set's merged abort heat.
type SetHeat struct {
	Set       int    `json:"set"`
	Conflicts uint64 `json:"conflicts"`
	Capacity  uint64 `json:"capacity"`
}

// Heat merges the per-thread set-heat counters. The result has Config
// Sets entries, indexed by set. Writers must have quiesced.
func (p *Profile) Heat() []SetHeat {
	if p == nil {
		return nil
	}
	out := make([]SetHeat, p.cfg.Sets)
	for i := range out {
		out[i].Set = i
	}
	for _, sh := range p.all() {
		for i, n := range sh.conHeat {
			out[i].Conflicts += n
		}
		for i, n := range sh.capHeat {
			out[i].Capacity += n
		}
	}
	return out
}

// DomainHeat is one memory domain's merged abort heat (sharded-domain
// topologies; see SetDomainRouter).
type DomainHeat struct {
	Domain    int    `json:"domain"`
	Conflicts uint64 `json:"conflicts"`
	Capacity  uint64 `json:"capacity"`
}

// SetDomainRouter attaches a line→domain router covering n domains: from
// then on every conflict and capacity event is also attributed to the
// owning memory domain, and DomainHeat reports the per-domain totals.
// Attach before workers start (the router is not synchronized against
// the Record* hot path); nil detaches. The router
// must be allocation-free and side-effect-free — it runs inside the
// htmsafe Record* hooks.
func (p *Profile) SetDomainRouter(n int, of func(line uint32) int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.domN, p.domOf = n, of
	p.mu.Unlock()
	for _, sh := range p.all() {
		sh.route(n, of)
	}
}

// route applies a router to the shard.
func (sh *Shard) route(n int, of func(line uint32) int) {
	if of == nil || n <= 0 {
		sh.domOf, sh.domCon, sh.domCap = nil, nil, nil
		return
	}
	sh.domCon = make([]uint64, n)
	sh.domCap = make([]uint64, n)
	sh.domOf = of
}

// DomainHeat merges the per-thread domain-heat counters; nil when no
// domain router is attached. Writers must have quiesced.
func (p *Profile) DomainHeat() []DomainHeat {
	if p == nil || p.domN <= 0 {
		return nil
	}
	out := make([]DomainHeat, p.domN)
	for i := range out {
		out[i].Domain = i
	}
	for _, sh := range p.all() {
		for i, n := range sh.domCon {
			out[i].Conflicts += n
		}
		for i, n := range sh.domCap {
			out[i].Capacity += n
		}
	}
	return out
}

// FootprintStat is one (class, outcome) cell's merged distribution
// summary: counts and log-bucketed quantiles of read lines, write lines,
// and peak set occupancy.
type FootprintStat struct {
	Class   string `json:"class"`
	Outcome string `json:"outcome"`
	Count   uint64 `json:"count"`

	ReadP50 int64 `json:"read_p50"`
	ReadP95 int64 `json:"read_p95"`
	ReadP99 int64 `json:"read_p99"`
	ReadMax int64 `json:"read_max"`

	WriteP50 int64 `json:"write_p50"`
	WriteP95 int64 `json:"write_p95"`
	WriteP99 int64 `json:"write_p99"`
	WriteMax int64 `json:"write_max"`

	OccP50 int64 `json:"occ_p50"`
	OccP95 int64 `json:"occ_p95"`
	OccP99 int64 `json:"occ_p99"`
	OccMax int64 `json:"occ_max"`
}

// Footprints merges the per-thread footprint histograms and returns one
// row per non-empty (class, outcome) cell, classes outer, outcomes inner.
// Writers must have quiesced.
func (p *Profile) Footprints() []FootprintStat {
	if p == nil {
		return nil
	}
	shards := p.all()
	var out []FootprintStat
	var read, write, occ hist.Histogram
	for c := uint8(0); c < ClassCount; c++ {
		for o := uint8(0); o < OutcomeCount; o++ {
			read.Reset()
			write.Reset()
			occ.Reset()
			for _, sh := range shards {
				f := &sh.foot[c][o]
				read.Merge(&f.read)
				write.Merge(&f.write)
				occ.Merge(&f.occ)
			}
			n := read.Count()
			if n == 0 {
				continue
			}
			out = append(out, FootprintStat{
				Class:   ClassName(c),
				Outcome: OutcomeName(o),
				Count:   n,
				ReadP50: read.Quantile(0.50), ReadP95: read.Quantile(0.95),
				ReadP99: read.Quantile(0.99), ReadMax: read.Max(),
				WriteP50: write.Quantile(0.50), WriteP95: write.Quantile(0.95),
				WriteP99: write.Quantile(0.99), WriteMax: write.Max(),
				OccP50: occ.Quantile(0.50), OccP95: occ.Quantile(0.95),
				OccP99: occ.Quantile(0.99), OccMax: occ.Max(),
			})
		}
	}
	return out
}

// Reset clears every shard's sketch, heat, and footprint state (between
// report rows; writers must have quiesced).
func (p *Profile) Reset() {
	for _, sh := range p.all() {
		sh.reset()
	}
}
