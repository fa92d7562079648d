package governor

import (
	"sync"
	"testing"
	"time"

	"repro/internal/tm"
	"repro/internal/trace"
)

// collector gathers alarms thread-safely (the callback runs on the
// watchdog goroutine).
type collector struct {
	mu     sync.Mutex
	alarms []Alarm
}

func (c *collector) add(a Alarm) {
	c.mu.Lock()
	c.alarms = append(c.alarms, a)
	c.mu.Unlock()
}

func (c *collector) byKind(k AlarmKind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, a := range c.alarms {
		if a.Kind == k {
			n++
		}
	}
	return n
}

// newTestWatchdog builds a watchdog sampling fast enough for test use.
func newTestWatchdog(stats *tm.Stats, threads int) (*Watchdog, *collector) {
	w := NewWatchdog(WatchdogConfig{Interval: time.Millisecond, StallSamples: 3}, stats, threads)
	c := &collector{}
	w.OnAlarm(c.add)
	return w, c
}

// waitFor polls cond for up to a second.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestWatchdogStallDetection(t *testing.T) {
	stats := &tm.Stats{}
	w, c := newTestWatchdog(stats, 2)
	w.Start()
	defer w.Stop()

	// Thread 0 commits steadily; thread 1 only aborts: a stall.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sh0, sh1 := stats.Shard(0), stats.Shard(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			sh0.CommitsSW.Inc()
			sh1.AbortsConflict.Inc()
			time.Sleep(100 * time.Microsecond)
		}
	}()
	waitFor(t, func() bool { return c.byKind(AlarmStall) > 0 }, "stall alarm")
	close(stop)
	wg.Wait()

	c.mu.Lock()
	var found *Alarm
	for i := range c.alarms {
		if c.alarms[i].Kind == AlarmStall {
			found = &c.alarms[i]
			break
		}
	}
	c.mu.Unlock()
	if found.Thread != 1 {
		t.Fatalf("stall attributed to thread %d, want 1", found.Thread)
	}
	if got := stats.Snapshot().WatchdogAlarms; got == 0 {
		t.Fatal("WatchdogAlarms counter not recorded")
	}
}

func TestWatchdogNoAlarmWhenIdleOrProgressing(t *testing.T) {
	stats := &tm.Stats{}
	w, c := newTestWatchdog(stats, 2)
	w.Start()
	// Idle system: nothing moves, no alarm.
	time.Sleep(20 * time.Millisecond)
	// Progressing system: commits and aborts both advance.
	sh := stats.Shard(0)
	for i := 0; i < 10; i++ {
		sh.CommitsHTM.Inc()
		sh.AbortsConflict.Inc()
		time.Sleep(2 * time.Millisecond)
	}
	w.Stop()
	c.mu.Lock()
	n := len(c.alarms)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d alarms on a healthy system, want 0: %+v", n, c.alarms)
	}
}

// A worker parked inside its transaction (in Slow, say) moves no counter
// at all; under the shipped DefaultConfig the governor's in-transaction
// flag is the only evidence. Deterministic: sample is driven by hand.
func TestWatchdogGlobalStallViaInflightGauge(t *testing.T) {
	stats := &tm.Stats{}
	g := New(DefaultConfig())
	w, c := newTestWatchdog(stats, 2)
	w.AttachGovernor(g)

	for i := 0; i < 2*w.cfg.StallSamples; i++ {
		w.sample()
	}
	if n := c.byKind(AlarmStall); n != 0 {
		t.Fatalf("%d stall alarms on an idle system, want 0", n)
	}

	st := g.State(1)
	g.Begin(st) // parked: no commit, no abort
	for i := 0; i < w.cfg.StallSamples-1; i++ {
		w.sample()
	}
	if n := c.byKind(AlarmStall); n != 0 {
		t.Fatalf("stall alarm after %d samples, deadline is %d", w.cfg.StallSamples-1, w.cfg.StallSamples)
	}
	w.sample()
	if len(c.alarms) != 1 || c.alarms[0] != (Alarm{Kind: AlarmStall, Thread: -1}) {
		t.Fatalf("alarms = %+v, want one global stall (thread -1)", c.alarms)
	}

	// The transaction finishing (even without a counted commit) re-arms.
	g.Finish(st, trace.PathGL)
	for i := 0; i < 2*w.cfg.StallSamples; i++ {
		w.sample()
	}
	if n := c.byKind(AlarmStall); n != 1 {
		t.Fatalf("%d stall alarms after the worker left, want still 1", n)
	}
}

// TestWatchdogTraceAndShardSlots pins that the watchdog writes only its own
// slot (index = worker count) in both the stats shards and the trace sink —
// the single-writer discipline the analyzers enforce for workers.
func TestWatchdogTraceAndShardSlots(t *testing.T) {
	stats := &tm.Stats{}
	const threads = 2
	sink := trace.NewSink(64)
	w, _ := newTestWatchdog(stats, threads)
	w.SetTrace(sink)
	w.Start()
	sh := stats.Shard(1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sh.AbortsConflict.Inc()
			time.Sleep(100 * time.Microsecond)
		}
	}()
	waitFor(t, func() bool { return w.Alarms() > 0 }, "alarm")
	close(stop)
	wg.Wait()
	w.Stop()

	for i := 0; i < threads; i++ {
		if got := stats.Shard(i).WatchdogAlarms.Load(); got != 0 {
			t.Fatalf("worker shard %d has WatchdogAlarms=%d, want 0", i, got)
		}
	}
	if got := stats.Shard(threads).WatchdogAlarms.Load(); got == 0 {
		t.Fatal("watchdog's own shard slot recorded nothing")
	}
	var sawMark bool
	for _, e := range sink.Events() {
		if e.Kind == trace.EvWatchdog {
			sawMark = true
			if e.Thread != int32(threads) {
				t.Fatalf("watchdog event on thread %d, want %d", e.Thread, threads)
			}
		}
	}
	if !sawMark {
		t.Fatal("no EvWatchdog event recorded")
	}
}
