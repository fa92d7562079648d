package governor

import (
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
)

// String returns the alarm kind's stable name.
func (k AlarmKind) String() string {
	if k == AlarmStall {
		return "stall"
	}
	return "alarm(?)"
}

// Alarm is one watchdog finding. Thread is the stalled worker, or -1 for a
// system-wide stall.
type Alarm struct {
	Kind   AlarmKind
	Thread int
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

// Deadline returns the stall deadline the configuration implies.
func (c WatchdogConfig) Deadline() time.Duration {
	return c.Interval * time.Duration(c.StallSamples)
}

// Watchdog is a sampling progress monitor over a system's per-thread stats
// shards. It only observes: it runs in its own goroutine between Start and
// Stop, records alarms into its own stats shard slot (index = worker count,
// preserving the single-writer discipline) and, when a trace sink is
// attached, into its own trace buffer slot, and changes nothing the
// workers do.
type Watchdog struct {
	cfg     WatchdogConfig
	stats   *tm.Stats
	threads int

	kernel  Gauge // optional: the in-flight gauge for global-stall detection
	onAlarm func(Alarm)
	buf     *trace.Buffer
	sh      *tm.Shard

	stop chan struct{}
	done chan struct{}

	// Sampler state (watchdog goroutine only).
	lastCommits []uint64
	lastAborts  []uint64
	stallFor    []int
	lastTotal   uint64
	totalStall  int
}

// NewWatchdog builds a watchdog over stats for a system running the given
// number of worker threads. Attach options (AttachKernel, SetTrace,
// OnAlarm) before Start.
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

// Gauge counts the threads inside a transaction right now. It is
// exec.Runner.Inflight, which counts while a governor is attached; exec
// imports this package, so the watchdog names the method, not the type.
type Gauge interface{ Inflight() int64 }

// AttachKernel lets the watchdog read the kernel's in-flight gauge to tell
// "everything is idle" from "everything is stuck".
func (w *Watchdog) AttachKernel(k Gauge) { w.kernel = k }

// SetTrace attaches a sink; alarms are recorded as marks in the watchdog's
// own buffer slot (index = worker count).
func (w *Watchdog) SetTrace(s *trace.Sink) { w.buf = s.Thread(w.threads) }

// OnAlarm installs a callback invoked from the watchdog goroutine on every
// alarm. Install before Start.
func (w *Watchdog) OnAlarm(f func(Alarm)) { w.onAlarm = f }

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
		snap := w.stats.Shard(i).Snapshot()
		commits, aborts := snap.Commits(), snap.Aborts()
		totalCommits += commits
		// Per-thread stall: aborts keep arriving but nothing commits. A
		// fully idle thread (neither moves) is not stalled.
		if commits == w.lastCommits[i] && aborts > w.lastAborts[i] {
			w.stallFor[i]++
			if w.stallFor[i] == w.cfg.StallSamples {
				w.alarm(i)
				w.stallFor[i] = 0 // re-arm after the deadline, not per sample
			}
		} else {
			w.stallFor[i] = 0
		}
		w.lastCommits[i] = commits
		w.lastAborts[i] = aborts
	}

	// Global stall: transactions in flight (per the kernel's gauge) but
	// no commit anywhere — catches workers stuck in waits that produce
	// neither commits nor aborts (a convoy on the optimistic gate).
	var active int64
	if w.kernel != nil && totalCommits == w.lastTotal {
		active = w.kernel.Inflight()
	}
	if active > 0 {
		w.totalStall++
		if w.totalStall == w.cfg.StallSamples {
			w.alarm(-1)
			w.totalStall = 0
		}
	} else {
		w.totalStall = 0
	}
	w.lastTotal = totalCommits
}

// alarm records one stall finding everywhere it is observable: the
// watchdog's stats shard slot, the trace stream and the callback.
func (w *Watchdog) alarm(thread int) {
	w.sh.WatchdogAlarms.Inc()
	if w.buf != nil {
		arg := uint64(AlarmStall)<<32 | uint64(uint32(int32(thread)))
		w.buf.RecordMark(trace.Now(), trace.EvWatchdog, arg)
	}
	if w.onAlarm != nil {
		w.onAlarm(Alarm{Kind: AlarmStall, Thread: thread})
	}
}
