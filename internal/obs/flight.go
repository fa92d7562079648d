package obs

import (
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/governor"
	"repro/internal/trace"
)

// FlightConfig places the flight recorder and sets its cadence.
type FlightConfig struct {
	// Dir is where dump artifacts are written (required).
	Dir string
	// SampleEvery is the metric-sampling period (10ms when <= 0).
	SampleEvery time.Duration
}

const (
	// ringCap is the metric-sample ring capacity: at the default cadence
	// about five seconds of history.
	ringCap = 512
	// dumpCooldown suppresses further dumps for this long after one fires,
	// so an alarm storm leaves one artifact per episode, not hundreds.
	dumpCooldown = 2 * time.Second
	// breakerBurst is the repeatedly-tripping threshold: this many breaker
	// trips within one sampling period arm a dump.
	breakerBurst = 8
)

// FlightRecorder is the black box: a background sampler fills a bounded
// ring of registry snapshots, and when something goes wrong — a watchdog
// alarm, a breaker-trip storm, a SIGQUIT — the recent history is dumped as
// a timestamped artifact pair: a Chrome/Perfetto trace JSON and a metrics
// CSV of the ring.
//
// Triggers only *arm* the recorder; the artifact is written at the next
// quiesce point (Flush, called by the harness between campaign phases and
// at end of run), because the trace rings are single-writer memory that
// may only be read once workers have stopped. DumpNow exists for
// boundaries where the caller knows the workers are quiet, and the
// SIGQUIT handler uses it best-effort (a wedged run is about to die; a
// torn trace beats no trace).
type FlightRecorder struct {
	cfg FlightConfig
	reg *Registry

	mu      sync.Mutex
	ring    []Snapshot
	pos     int
	wrap    bool
	prev    Snapshot
	hasPrev bool
	armed   string // first pending trigger reason ("" = disarmed)
	lastDmp time.Time
	dumps   []string
	sink    *trace.Sink

	stop chan struct{}
	done chan struct{}
}

// NewFlightRecorder creates a recorder over reg, dumping into cfg.Dir.
func NewFlightRecorder(reg *Registry, cfg FlightConfig) *FlightRecorder {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 10 * time.Millisecond
	}
	return &FlightRecorder{cfg: cfg, reg: reg}
}

// SetSink attaches the trace sink whose event rings are dumped into the
// Perfetto artifact. Boundary-only.
func (f *FlightRecorder) SetSink(s *trace.Sink) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.sink = s
	f.mu.Unlock()
}

// Start launches the background sampler. Stop must be called before the
// process exits if a final Flush is wanted.
func (f *FlightRecorder) Start() {
	if f == nil || f.stop != nil {
		return
	}
	f.stop = make(chan struct{})
	f.done = make(chan struct{})
	go f.run(f.stop, f.done)
}

// Stop halts the background sampler (without flushing).
func (f *FlightRecorder) Stop() {
	if f == nil || f.stop == nil {
		return
	}
	close(f.stop)
	<-f.done
	f.stop, f.done = nil, nil
}

func (f *FlightRecorder) run(stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(f.cfg.SampleEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			f.sampleOnce()
		}
	}
}

// sampleOnce takes one coherent sample into the ring and checks the
// counter-delta trigger: at least breakerBurst breaker trips within one
// period. Watchdog alarms arm the recorder through NoteAlarm instead.
func (f *FlightRecorder) sampleOnce() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ring == nil {
		f.ring = make([]Snapshot, ringCap)
	}
	slot := &f.ring[f.pos]
	f.reg.Sample(slot)
	f.pos++
	if f.pos == len(f.ring) {
		f.pos, f.wrap = 0, true
	}
	if f.hasPrev {
		for i := range slot.Systems {
			cur := &slot.Systems[i]
			var prev *SystemSample
			for j := range f.prev.Systems {
				if f.prev.Systems[j].Name == cur.Name {
					prev = &f.prev.Systems[j]
					break
				}
			}
			if prev == nil {
				continue
			}
			if cur.TM.Delta(prev.TM).BreakerTrips >= breakerBurst {
				f.armLocked("breaker-storm-" + cur.Name)
			}
		}
	}
	// Deep-copying the sample into prev would allocate per tick; reusing
	// prev's slice via the same fill path keeps the steady state clean.
	f.prev.Systems = f.prev.Systems[:0]
	f.prev.Systems = append(f.prev.Systems[:0], slot.Systems...)
	f.prev.TS, f.prev.Seq = slot.TS, slot.Seq
	f.hasPrev = true
}

// armLocked records the first pending trigger reason (mu held).
func (f *FlightRecorder) armLocked(reason string) {
	if f.armed == "" {
		f.armed = sanitizeReason(reason)
	}
}

// NoteAlarm arms the recorder from a watchdog alarm callback, the one way
// a watchdog alarm arms it. Safe to call from the watchdog goroutine;
// allocation-light and non-blocking beyond a short mutex.
func (f *FlightRecorder) NoteAlarm(a governor.Alarm) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.armLocked("watchdog-" + a.Kind.String())
	f.mu.Unlock()
}

// Armed reports the pending trigger reason ("" when disarmed).
func (f *FlightRecorder) Armed() string {
	if f == nil {
		return ""
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.armed
}

// Flush writes the armed dump, if any, tagging the artifact with label
// (a phase or run identifier). Call only at quiesce points — workers
// stopped or between campaign phases — because it reads the trace rings.
// Returns the artifact basename ("" when disarmed or within cooldown).
func (f *FlightRecorder) Flush(label string) (string, error) {
	if f == nil {
		return "", nil
	}
	f.mu.Lock()
	reason := f.armed
	f.armed = ""
	if reason == "" {
		f.mu.Unlock()
		return "", nil
	}
	if !f.lastDmp.IsZero() && time.Since(f.lastDmp) < dumpCooldown {
		f.mu.Unlock()
		return "", nil
	}
	name, err := f.dumpLocked(reason, label)
	f.mu.Unlock()
	return name, err
}

// DumpNow writes an artifact unconditionally (no arming, no cooldown).
// The SIGQUIT handler uses it; tests use it to exercise the writer.
func (f *FlightRecorder) DumpNow(reason string) (string, error) {
	if f == nil {
		return "", nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dumpLocked(sanitizeReason(reason), "")
}

// Dumps returns the artifact basenames written so far.
func (f *FlightRecorder) Dumps() []string {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.dumps))
	copy(out, f.dumps)
	return out
}

// dumpLocked writes the trace JSON and metrics CSV artifacts (mu held).
func (f *FlightRecorder) dumpLocked(reason, label string) (string, error) {
	stamp := time.Now().UTC().Format("20060102T150405.000")
	stamp = strings.ReplaceAll(stamp, ".", "_")
	base := "flight-" + reason
	if label != "" {
		base += "-" + sanitizeReason(label)
	}
	base += "-" + stamp

	if f.sink != nil {
		tf, err := os.Create(filepath.Join(f.cfg.Dir, base+".trace.json"))
		if err != nil {
			return "", err
		}
		err = trace.WriteChrome(tf, f.sink)
		if cerr := tf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return "", fmt.Errorf("flight trace dump: %w", err)
		}
	}

	mf, err := os.Create(filepath.Join(f.cfg.Dir, base+".metrics.csv"))
	if err != nil {
		return "", err
	}
	err = f.writeCSVLocked(mf)
	if cerr := mf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("flight metrics dump: %w", err)
	}

	f.lastDmp = time.Now()
	f.dumps = append(f.dumps, base)
	return base, nil
}

// flightCSVHeader is the metrics-CSV column set: the ring sample
// identity, every tm.Snapshot counter, and the inflight gauge.
const flightCSVHeader = "ts_ns,seq,system," +
	"commits_htm,commits_sw,commits_gl," +
	"aborts_conflict,aborts_capacity,aborts_explicit,aborts_other," +
	"serial_nanos,escalations_budget,escalations_starve," +
	"faults_injected,breaker_trips,breaker_probes,breaker_closes,breaker_slow," +
	"watchdog_alarms,cross_domain_commits,cross_domain_aborts,domain_ring_rollovers," +
	"inflight"

// writeCSVLocked writes the ring, oldest sample first (mu held).
func (f *FlightRecorder) writeCSVLocked(w *os.File) error {
	if _, err := fmt.Fprintln(w, flightCSVHeader); err != nil {
		return err
	}
	emit := func(snap *Snapshot) error {
		for i := range snap.Systems {
			s := &snap.Systems[i]
			t := &s.TM
			row := strings.Join([]string{
				strconv.FormatInt(snap.TS, 10), strconv.FormatUint(snap.Seq, 10), s.Name,
				u(t.CommitsHTM), u(t.CommitsSW), u(t.CommitsGL),
				u(t.AbortsConflict), u(t.AbortsCapacity), u(t.AbortsExplicit), u(t.AbortsOther),
				strconv.FormatInt(t.SerialNanos, 10),
				u(t.EscalationsBudget), u(t.EscalationsStarve),
				u(t.FaultsInjected), u(t.BreakerTrips), u(t.BreakerProbes), u(t.BreakerCloses), u(t.BreakerSlow),
				u(t.WatchdogAlarms), u(t.CrossDomainCommits), u(t.CrossDomainAborts), u(t.DomainRingRollovers),
				strconv.FormatInt(s.Inflight, 10),
			}, ",")
			if _, err := fmt.Fprintln(w, row); err != nil {
				return err
			}
		}
		return nil
	}
	if f.wrap {
		for i := f.pos; i < len(f.ring); i++ {
			if err := emit(&f.ring[i]); err != nil {
				return err
			}
		}
	}
	for i := 0; i < f.pos; i++ {
		if err := emit(&f.ring[i]); err != nil {
			return err
		}
	}
	return nil
}

func u(v uint64) string { return strconv.FormatUint(v, 10) }

// sanitizeReason maps a trigger reason onto the filename-safe alphabet.
func sanitizeReason(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// InstallSIGQUIT registers a best-effort SIGQUIT dump: on the first
// SIGQUIT the recorder dumps immediately (the trace read may be torn —
// the process is presumed wedged) and the signal is re-raised with the
// default handler so the usual goroutine dump still happens. Returns an
// uninstall func.
func (f *FlightRecorder) InstallSIGQUIT() func() {
	if f == nil {
		return func() {}
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		if _, ok := <-ch; !ok {
			return
		}
		if name, err := f.DumpNow("sigquit"); err == nil && name != "" {
			fmt.Fprintf(os.Stderr, "flight recorder: dumped %s on SIGQUIT\n", name)
		}
		signal.Reset(syscall.SIGQUIT)
		_ = syscall.Kill(syscall.Getpid(), syscall.SIGQUIT)
	}()
	return func() {
		signal.Stop(ch)
		close(ch)
	}
}
