package governor

import (
	"sync/atomic"
	"time"

	"repro/internal/tm"
	"repro/internal/trace"
)

// AlarmKind classifies a progress-watchdog alarm.
type AlarmKind uint8

const (
	// AlarmStall: a worker (or the whole system) kept aborting without a
	// single commit for the stall deadline.
	AlarmStall AlarmKind = iota
	// AlarmLemming: more than lemmingPerSample lemming-wait escalations
	// landed within one sample — the optimistic gate is a convoy.
	AlarmLemming
	// AlarmOscillation: degraded mode entered and exited more than
	// oscillationEdges times within the last oscillationWindow samples.
	AlarmOscillation
)

// String returns the alarm kind's stable name.
func (k AlarmKind) String() string {
	switch k {
	case AlarmStall:
		return "stall"
	case AlarmLemming:
		return "lemming-pileup"
	case AlarmOscillation:
		return "degraded-oscillation"
	}
	return "alarm(?)"
}

// Alarm is one watchdog finding. Thread is the stalled worker, or -1 for
// system-wide alarms; Value carries the kind-specific magnitude (aborts
// absorbed during the stall, lemming escalations in the sample, degraded
// edges in the window).
type Alarm struct {
	Kind   AlarmKind
	Thread int
	Value  uint64
}

// WatchdogConfig sets the progress watchdog's clock: the two values the
// soak's -wd-interval and -wd-stall flags change. Start from
// DefaultWatchdogConfig.
type WatchdogConfig struct {
	// Interval is the sampling period.
	Interval time.Duration
	// StallSamples is how many consecutive no-commit-progress samples
	// (while aborts keep arriving, or transactions are in flight) raise a
	// stall alarm. The stall deadline is Interval * StallSamples.
	StallSamples int
}

// DefaultWatchdogConfig samples every 10ms and alarms after 5 samples
// without commit progress: a 50ms stall deadline.
func DefaultWatchdogConfig() WatchdogConfig {
	return WatchdogConfig{Interval: 10 * time.Millisecond, StallSamples: 5}
}

// The watchdog's fixed settings: no entry point changes them.
const (
	// lemmingPerSample: more lemming escalations than this within one
	// sample raise a lemming-pileup alarm.
	lemmingPerSample = 1024
	// oscillationEdges: more degraded-mode entries plus exits than this
	// within the last oscillationWindow samples raise an oscillation alarm.
	oscillationWindow = 100
	oscillationEdges  = 16
	// recoverPressure is the degradation pressure a stall alarm bumps on an
	// attached Degrader: it serializes the system so the stalled work
	// completes on the guaranteed path.
	recoverPressure = 64
)

// Deadline returns the stall deadline the configuration implies.
func (c WatchdogConfig) Deadline() time.Duration {
	return c.Interval * time.Duration(c.StallSamples)
}

// Degrader forces serialized recovery; exec.Runner implements it.
type Degrader interface{ BumpPressure(n int64) }

// Watchdog is a sampling progress monitor over a system's per-thread stats
// shards. It runs in its own goroutine between Start and Stop, records
// alarms into its own stats shard slot (index = worker count, preserving
// the single-writer discipline) and, when a trace sink is attached, into
// its own trace buffer slot.
type Watchdog struct {
	cfg     WatchdogConfig
	stats   *tm.Stats
	threads int

	gov      *Governor // optional: in-transaction flags for global-stall detection
	degrader Degrader  // optional: forced recovery target
	onAlarm  func(Alarm)
	buf      *trace.Buffer
	sh       *tm.Shard

	alarms atomic.Uint64
	stop   chan struct{}
	done   chan struct{}

	// Sampler state (watchdog goroutine only).
	lastCommits []uint64
	lastAborts  []uint64
	stallFor    []int
	lastTotal   uint64
	totalStall  int
	lastLemming uint64
	lastEdges   uint64
	edgeWindow  [oscillationWindow]uint64
	edgeHead    int
}

// NewWatchdog builds a watchdog over stats for a system running the given
// number of worker threads. Attach options (AttachGovernor, SetDegrader,
// SetTrace, OnAlarm) before Start.
func NewWatchdog(cfg WatchdogConfig, stats *tm.Stats, threads int) *Watchdog {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultWatchdogConfig().Interval
	}
	if cfg.StallSamples <= 0 {
		cfg.StallSamples = DefaultWatchdogConfig().StallSamples
	}
	return &Watchdog{
		cfg:         cfg,
		stats:       stats,
		threads:     threads,
		sh:          stats.Shard(threads), // own slot, one past the workers
		lastCommits: make([]uint64, threads),
		lastAborts:  make([]uint64, threads),
		stallFor:    make([]int, threads),
	}
}

// AttachGovernor lets the watchdog use the governor's per-thread
// in-transaction flags to tell "everything is idle" from "everything is
// stuck".
func (w *Watchdog) AttachGovernor(g *Governor) { w.gov = g }

// SetDegrader attaches the forced-recovery target (the system's runner):
// every stall alarm then bumps its degradation pressure.
func (w *Watchdog) SetDegrader(d Degrader) { w.degrader = d }

// SetTrace attaches a sink; alarms are recorded as marks in the watchdog's
// own buffer slot (index = worker count).
func (w *Watchdog) SetTrace(s *trace.Sink) { w.buf = s.Thread(w.threads) }

// OnAlarm installs a callback invoked from the watchdog goroutine on every
// alarm. Install before Start.
func (w *Watchdog) OnAlarm(f func(Alarm)) { w.onAlarm = f }

// Alarms returns the total alarms raised so far.
func (w *Watchdog) Alarms() uint64 { return w.alarms.Load() }

// Start launches the sampling goroutine. Call at most once per watchdog.
func (w *Watchdog) Start() {
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	go w.loop()
}

// Stop terminates the sampling goroutine and waits for it to exit. Safe to
// call once after Start.
func (w *Watchdog) Stop() {
	close(w.stop)
	<-w.done
}

func (w *Watchdog) loop() {
	defer close(w.done)
	tick := time.NewTicker(w.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
			w.sample()
		}
	}
}

// sample takes one reading of the shards and raises due alarms.
func (w *Watchdog) sample() {
	var totalCommits uint64
	for i := 0; i < w.threads; i++ {
		sh := w.stats.Shard(i)
		commits := sh.CommitsHTM.Load() + sh.CommitsSW.Load() + sh.CommitsGL.Load()
		aborts := sh.AbortsConflict.Load() + sh.AbortsCapacity.Load() +
			sh.AbortsExplicit.Load() + sh.AbortsOther.Load()
		totalCommits += commits
		// Per-thread stall: aborts keep arriving but nothing commits. A
		// fully idle thread (neither moves) is not stalled.
		if commits == w.lastCommits[i] && aborts > w.lastAborts[i] {
			w.stallFor[i]++
			if w.stallFor[i] == w.cfg.StallSamples {
				w.alarm(AlarmStall, i, aborts-w.lastAborts[i])
				w.stallFor[i] = 0 // re-arm after the deadline, not per sample
			}
		} else {
			w.stallFor[i] = 0
		}
		w.lastCommits[i] = commits
		w.lastAborts[i] = aborts
	}

	// Global stall: transactions in flight (per the governor's flags) but
	// no commit anywhere — catches workers stuck in waits that produce
	// neither commits nor aborts (a convoy on the optimistic gate).
	var active int64
	if w.gov != nil && totalCommits == w.lastTotal {
		active = w.gov.Active()
	}
	if active > 0 {
		w.totalStall++
		if w.totalStall == w.cfg.StallSamples {
			w.alarm(AlarmStall, -1, uint64(active))
			w.totalStall = 0
		}
	} else {
		w.totalStall = 0
	}
	w.lastTotal = totalCommits

	snap := w.stats.Snapshot()

	// Lemming pileup: escalation rate through the bounded gate wait. A
	// Stats.Reset between campaign phases drops counters below the last
	// sample; clamp the delta instead of underflowing.
	if d := counterDelta(snap.EscalationsLemming, w.lastLemming); d > lemmingPerSample {
		w.alarm(AlarmLemming, -1, d)
	}
	w.lastLemming = snap.EscalationsLemming

	// Degraded-mode oscillation: mode edges within the sampling window.
	edges := snap.DegradedEnter + snap.DegradedExit
	w.edgeWindow[w.edgeHead] = counterDelta(edges, w.lastEdges)
	w.edgeHead = (w.edgeHead + 1) % oscillationWindow
	w.lastEdges = edges
	var inWindow uint64
	for _, e := range w.edgeWindow {
		inWindow += e
	}
	if inWindow > oscillationEdges {
		w.alarm(AlarmOscillation, -1, inWindow)
		w.edgeWindow = [oscillationWindow]uint64{} // one flap storm = one alarm
	}
}

// counterDelta is cur-last, treating a counter that moved backwards (a
// Stats.Reset between campaign phases) as restarting from zero.
func counterDelta(cur, last uint64) uint64 {
	if cur < last {
		return cur
	}
	return cur - last
}

// alarm records one finding everywhere it is observable: the watchdog's
// stats shard slot, the trace stream, the callback, and (for stalls, when
// a Degrader is attached) the forced-recovery path.
func (w *Watchdog) alarm(kind AlarmKind, thread int, value uint64) {
	w.alarms.Add(1)
	w.sh.WatchdogAlarms.Inc()
	if w.buf != nil {
		arg := uint64(kind)<<32 | uint64(uint32(int32(thread)))
		w.buf.RecordMark(trace.Now(), trace.EvWatchdog, arg)
	}
	if w.onAlarm != nil {
		w.onAlarm(Alarm{Kind: kind, Thread: thread, Value: value})
	}
	if kind == AlarmStall && w.degrader != nil {
		w.degrader.BumpPressure(recoverPressure)
	}
}
