// Package fault implements a deterministic, seeded fault injector for the
// simulated best-effort HTM stack.
//
// Best-effort HTM can abort at any instruction for reasons the program
// never caused — timer interrupts, cache pressure from a sibling
// hyper-thread, TLB shootdowns. The engine in internal/htm models the
// *systematic* part of that behaviour (capacity, quantum), but robustness
// work needs the *adversarial* part too: abort storms, unlucky threads,
// protocol-targeted failures. This package supplies it reproducibly.
//
// An Injector is consulted at named protocol sites:
//
//   - SiteHTMBegin: every hardware transaction begin (fast path, sub-HTM
//     transactions, reduced-hardware commits);
//   - SiteHTMCommit: every hardware commit;
//   - SiteRingPub: publication of a committed write signature into the
//     global ring (hardware fast-path publication and the software
//     publisher in Part-HTM's global commit);
//   - SiteLockSigRead: the monitored read of the shared write-locks
//     signature that gates every Part-HTM validation.
//
// Three mechanisms decide whether a fault fires, checked in order:
//
//  1. Scripted schedules: a per-thread FIFO of events, each forcing a
//     specific abort reason (and _xabort code) at a specific site for a
//     given number of draws. Scripts make pathological interleavings —
//     two transactions forever invalidating each other — exactly
//     reproducible.
//  2. Abort storms: windows of the global hardware-begin clock during
//     which every hardware attempt fails, modelling timer-interrupt
//     bursts and migration flurries. A storm may repeat periodically.
//  3. Per-site probabilities, drawn from a per-thread seeded generator,
//     so two runs with the same seed and thread count inject the same
//     faults at the same per-thread decision points.
//
// Independently, QuantumJitter perturbs each transaction's timer quantum
// by a seeded factor, modelling the variance of where in a scheduling
// quantum a transaction happens to start.
//
// The injector is pay-for-use: engines without one (the default) take a
// single nil check per site, and every counter stays exactly zero.
package fault

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Site names one fault-injection point in the protocol stack.
type Site uint8

const (
	// SiteHTMBegin is the begin of any hardware transaction.
	SiteHTMBegin Site = iota
	// SiteHTMCommit is the commit of any hardware transaction.
	SiteHTMCommit
	// SiteRingPub is the publication of a write signature into the ring.
	SiteRingPub
	// SiteLockSigRead is the read of the shared write-locks signature.
	SiteLockSigRead
	// NumSites is the number of injection sites.
	NumSites
)

// String returns the site's name.
func (s Site) String() string {
	switch s {
	case SiteHTMBegin:
		return "htm-begin"
	case SiteHTMCommit:
		return "htm-commit"
	case SiteRingPub:
		return "ring-pub"
	case SiteLockSigRead:
		return "locksig-read"
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// Reason classifies an injected abort. Values mirror htm.AbortReason
// (None/Conflict/Capacity/Explicit/Other) without importing it, so this
// package stays at the bottom of the dependency graph.
type Reason uint8

const (
	// None means no fault (the zero value; injected faults with reason
	// None default to Conflict).
	None Reason = iota
	// Conflict models a coherence invalidation by another thread.
	Conflict
	// Capacity models exhausted cache resources.
	Capacity
	// Explicit models an _xabort with a user code.
	Explicit
	// Other models a timer interrupt or any unclassified hardware event.
	Other
)

// String returns the lower-case reason name.
func (r Reason) String() string {
	switch r {
	case None:
		return "none"
	case Conflict:
		return "conflict"
	case Capacity:
		return "capacity"
	case Explicit:
		return "explicit"
	case Other:
		return "other"
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// InjectedCode is the _xabort code carried by injected Explicit aborts
// that do not specify one.
const InjectedCode uint8 = 0xFF

// SiteRate is the probabilistic model of one site: each draw fires with
// probability Prob and aborts with Reason (Conflict if unset).
type SiteRate struct {
	Prob   float64
	Reason Reason
}

// Storm is a window of the global hardware-begin clock during which every
// hardware attempt (SiteHTMBegin draw) fails: begins From..To-1, counted
// from 1. A nonzero Period repeats the window every Period begins —
// periodic abort bursts, as a timer interrupt delivers.
type Storm struct {
	From, To uint64
	Period   uint64
	Reason   Reason
}

// Forever is a convenient Storm.To for a storm that never ends.
const Forever = math.MaxUint64

// ScriptEvent forces Count draws at Site (for the scripted thread) to
// abort with Reason and, for Explicit, the given _xabort Code. Events of
// one thread's script fire strictly in order: draws at other sites pass
// through (rates and storms still apply) until the head event's site
// comes up.
type ScriptEvent struct {
	Site   Site
	Reason Reason
	Code   uint8
	Count  int
}

// Phase is one stage of a multi-phase chaos Campaign: its own per-site
// rates and storm windows, active while the phase is current. Storm windows
// are relative to the phase's start on the hardware-begin clock. Begins
// bounds the phase in hardware-begin ticks, after which the injector
// advances to the next phase on its own; zero means the phase only ends
// when AdvancePhase is called (wall-clock-driven harness phases).
type Phase struct {
	Name   string
	Rates  [NumSites]SiteRate
	Storms []Storm
	Begins uint64
}

// Config describes one injector. The zero value injects nothing.
type Config struct {
	// Seed makes every probabilistic decision reproducible; per-thread
	// generators are derived from it.
	Seed int64
	// Threads is the number of hardware thread slots covered (default 64,
	// the engine's slot count).
	Threads int
	// Rates is the per-site probabilistic fault model.
	Rates [NumSites]SiteRate
	// Storms are hardware-begin abort windows.
	Storms []Storm
	// QuantumJitter perturbs each transaction's timer quantum by a factor
	// uniform in [1-QuantumJitter, 1+QuantumJitter].
	QuantumJitter float64
	// Scripts holds per-thread forced schedules.
	Scripts map[int][]ScriptEvent
	// Campaign, when non-empty, sequences multi-phase chaos (storm →
	// sustained degradation → clear): the current phase's Rates and Storms
	// replace the Config-level ones, while Scripts and QuantumJitter stay
	// in force throughout. Phases advance on their Begins budget or via
	// AdvancePhase; the last phase holds forever.
	Campaign []Phase
}

// Validate checks cfg for malformed values — NaN or out-of-range
// probabilities, empty or never-firing storm windows, script events for
// thread slots the injector does not cover — and returns an explicit error
// for the first problem found. New panics on an invalid config, so callers
// building configs from user input (flags, JSON) should Validate first and
// report the error gracefully.
func (cfg *Config) Validate() error {
	if cfg.Threads < 0 {
		return fmt.Errorf("fault: Threads %d is negative", cfg.Threads)
	}
	if math.IsNaN(cfg.QuantumJitter) || math.IsInf(cfg.QuantumJitter, 0) {
		return fmt.Errorf("fault: QuantumJitter %v is not a finite number", cfg.QuantumJitter)
	}
	if cfg.QuantumJitter < 0 || cfg.QuantumJitter > 1 {
		return fmt.Errorf("fault: QuantumJitter %v outside [0,1]", cfg.QuantumJitter)
	}
	for i := range cfg.Rates {
		if err := validateRate(fmt.Sprintf("Rates[%v]", Site(i)), cfg.Rates[i]); err != nil {
			return err
		}
	}
	for i, st := range cfg.Storms {
		if err := validateStorm(fmt.Sprintf("Storms[%d]", i), st); err != nil {
			return err
		}
	}
	threads := cfg.Threads
	if threads == 0 {
		threads = 64
	}
	for th, evs := range cfg.Scripts {
		if th < 0 || th >= threads {
			return fmt.Errorf("fault: Scripts[%d] outside thread range [0,%d)", th, threads)
		}
		for j, ev := range evs {
			where := fmt.Sprintf("Scripts[%d][%d]", th, j)
			if ev.Site >= NumSites {
				return fmt.Errorf("fault: %s targets unknown site %d", where, ev.Site)
			}
			if ev.Reason > Other {
				return fmt.Errorf("fault: %s has unknown reason %d", where, ev.Reason)
			}
			if ev.Count < 0 {
				return fmt.Errorf("fault: %s has negative count %d", where, ev.Count)
			}
		}
	}
	for pi := range cfg.Campaign {
		ph := &cfg.Campaign[pi]
		tag := fmt.Sprintf("Campaign[%d]", pi)
		if ph.Name != "" {
			tag = fmt.Sprintf("Campaign[%d] %q", pi, ph.Name)
		}
		for i := range ph.Rates {
			if err := validateRate(fmt.Sprintf("%s Rates[%v]", tag, Site(i)), ph.Rates[i]); err != nil {
				return err
			}
		}
		for i, st := range ph.Storms {
			if err := validateStorm(fmt.Sprintf("%s Storms[%d]", tag, i), st); err != nil {
				return err
			}
		}
	}
	return nil
}

func validateRate(where string, r SiteRate) error {
	if math.IsNaN(r.Prob) || math.IsInf(r.Prob, 0) {
		return fmt.Errorf("fault: %s probability %v is not a finite number", where, r.Prob)
	}
	if r.Prob < 0 || r.Prob > 1 {
		return fmt.Errorf("fault: %s probability %v outside [0,1]", where, r.Prob)
	}
	if r.Reason > Other {
		return fmt.Errorf("fault: %s has unknown reason %d", where, r.Reason)
	}
	return nil
}

func validateStorm(where string, st Storm) error {
	if st.From == 0 {
		return fmt.Errorf("fault: %s begins count from 1, got From=0", where)
	}
	if st.To <= st.From {
		return fmt.Errorf("fault: %s window [%d,%d) is empty", where, st.From, st.To)
	}
	if st.Period > 0 && st.From > st.Period {
		return fmt.Errorf("fault: %s From %d past its period %d: the window never fires", where, st.From, st.Period)
	}
	if st.Reason > Other {
		return fmt.Errorf("fault: %s has unknown reason %d", where, st.Reason)
	}
	return nil
}

// Stats counts injected faults per site.
type Stats struct {
	Injected [NumSites]atomic.Uint64
}

// Total returns the number of faults injected across all sites.
func (st *Stats) Total() uint64 {
	var n uint64
	for i := range st.Injected {
		n += st.Injected[i].Load()
	}
	return n
}

// BySite returns the number of faults injected at one site.
func (st *Stats) BySite(s Site) uint64 { return st.Injected[s].Load() }

// threadState is one thread's private draw state. Draw is only ever
// called by the thread owning the slot, so no locking is needed; the
// struct is padded to keep neighbouring threads off one cache line.
type threadState struct {
	rng    uint64
	script []ScriptEvent
	_      [5]uint64
}

// phaseState is the campaign position, published as one immutable value so
// concurrent draws never see a phase index paired with another phase's
// clock base. start is the last begin tick of the previous phase: ticks
// start+1, start+2, ... are phase-relative ticks 1, 2, ... prev is the
// phase that ended at start, kept so a tick taken before the transition is
// still judged by the phase it fell in.
type phaseState struct {
	idx   int
	start uint64
	prev  *phaseState
}

// Injector decides, per protocol site and thread, whether to inject a
// fault. One injector serves one engine (and the software framework above
// it); all methods except the per-thread Draw state are concurrency safe.
type Injector struct {
	cfg     Config
	threads []threadState
	clock   atomic.Uint64 // global hardware-begin counter (storm time base)
	phase   atomic.Pointer[phaseState]
	stats   Stats
}

// New builds an injector from cfg. It panics if cfg is invalid; callers
// holding untrusted configs should call Validate first.
func New(cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 64
	}
	in := &Injector{cfg: cfg, threads: make([]threadState, cfg.Threads)}
	for i := range in.threads {
		// splitmix-style per-thread seed derivation.
		z := uint64(cfg.Seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
		z ^= z >> 30
		z *= 0x94D049BB133111EB
		in.threads[i].rng = z ^ z>>31 | 1
		if ev, ok := cfg.Scripts[i]; ok {
			in.threads[i].script = append([]ScriptEvent(nil), ev...)
		}
	}
	if len(cfg.Campaign) > 0 {
		in.phase.Store(&phaseState{})
	}
	return in
}

// Stats returns the injector's counters.
func (in *Injector) Stats() *Stats { return &in.stats }

// Clock returns the number of hardware begins observed so far.
func (in *Injector) Clock() uint64 { return in.clock.Load() }

// PhaseIndex returns the index of the current campaign phase, or -1 when
// the injector runs no campaign.
func (in *Injector) PhaseIndex() int {
	ps := in.phase.Load()
	if ps == nil {
		return -1
	}
	return ps.idx
}

// PhaseName returns the name of the current campaign phase ("" when the
// injector runs no campaign).
func (in *Injector) PhaseName() string {
	ps := in.phase.Load()
	if ps == nil {
		return ""
	}
	return in.cfg.Campaign[ps.idx].Name
}

// AdvancePhase manually moves the campaign to its next phase — the
// mechanism for wall-clock-driven harness phases (Begins == 0). The new
// phase's storm clock starts at the present begin count. It returns the
// index of the phase now current; calling past the last phase (or without
// a campaign) is a no-op.
func (in *Injector) AdvancePhase() int {
	for {
		ps := in.phase.Load()
		if ps == nil {
			return -1
		}
		if ps.idx+1 >= len(in.cfg.Campaign) {
			return ps.idx
		}
		next := &phaseState{idx: ps.idx + 1, start: in.clock.Load(), prev: ps}
		if in.phase.CompareAndSwap(ps, next) {
			return next.idx
		}
	}
}

// phaseAt returns the campaign phase begin tick falls in (nil when the
// injector runs no campaign). While the published phase has a Begins
// budget and tick lies past it, it steps to the next phase with a
// deterministic clock base (start + Begins), so the transition tick is the
// same no matter which thread draws it. A thread overtaken between taking
// its tick and looking here finds a phase that started at or after its
// tick; it walks back to the one it belongs to.
func (in *Injector) phaseAt(tick uint64) *phaseState {
	ps := in.phase.Load()
	if ps == nil {
		return nil
	}
	for {
		ph := &in.cfg.Campaign[ps.idx]
		if ph.Begins == 0 || tick <= ps.start || tick-ps.start <= ph.Begins || ps.idx+1 >= len(in.cfg.Campaign) {
			break
		}
		next := &phaseState{idx: ps.idx + 1, start: ps.start + ph.Begins, prev: ps}
		if in.phase.CompareAndSwap(ps, next) {
			ps = next
		} else {
			// Lost the race (auto- or manual advance); re-evaluate from
			// whatever state won.
			ps = in.phase.Load()
		}
	}
	for tick <= ps.start { // phase 0 starts at 0 and ticks start at 1
		ps = ps.prev
	}
	return ps
}

// rand01 advances thread state ts and returns a uniform float64 in [0,1).
func (ts *threadState) rand01() float64 {
	ts.rng = ts.rng*6364136223846793005 + 1442695040888963407
	return float64(ts.rng>>11) / float64(1<<53)
}

func reasonOr(r Reason) Reason {
	if r == None {
		return Conflict
	}
	return r
}

// Draw decides whether a fault fires at site for thread, returning the
// abort reason and _xabort code when it does. Draw must only be called by
// the thread owning the slot (the same discipline the HTM engine already
// imposes); draws at SiteHTMBegin advance the global storm clock.
func (in *Injector) Draw(site Site, thread int) (Reason, uint8, bool) {
	ts := &in.threads[thread]

	// 1. Scripted schedule: strict per-thread order.
	for len(ts.script) > 0 && ts.script[0].Count <= 0 {
		ts.script = ts.script[1:]
	}
	if len(ts.script) > 0 && ts.script[0].Site == site {
		ev := &ts.script[0]
		ev.Count--
		in.stats.Injected[site].Add(1)
		code := ev.Code
		if ev.Reason == Explicit && code == 0 {
			code = InjectedCode
		}
		return reasonOr(ev.Reason), code, true
	}

	// Resolve the active fault model: the current campaign phase's rates
	// and storms when a campaign runs, the config-level ones otherwise.
	rates := &in.cfg.Rates
	storms := in.cfg.Storms
	var base uint64 // storm clock base (phase start)

	// 2. Abort storms, on the global hardware-begin clock.
	if site == SiteHTMBegin {
		tick := in.clock.Add(1)
		if ps := in.phaseAt(tick); ps != nil {
			ph := &in.cfg.Campaign[ps.idx]
			rates, storms, base = &ph.Rates, ph.Storms, ps.start
		}
		pt := tick - base
		for i := range storms {
			st := &storms[i]
			eff := pt
			if st.Period > 0 {
				eff = (pt-1)%st.Period + 1
			}
			if eff >= st.From && eff < st.To {
				in.stats.Injected[site].Add(1)
				return reasonOr(st.Reason), InjectedCode, true
			}
		}
	} else if ps := in.phase.Load(); ps != nil {
		rates = &in.cfg.Campaign[ps.idx].Rates
	}

	// 3. Per-site probability.
	if r := &rates[site]; r.Prob > 0 && ts.rand01() < r.Prob {
		in.stats.Injected[site].Add(1)
		return reasonOr(r.Reason), InjectedCode, true
	}
	return None, 0, false
}

// Quantum returns the jittered timer quantum for one transaction of the
// given thread (base when jitter is disabled or the quantum is unlimited).
func (in *Injector) Quantum(thread int, base int64) int64 {
	j := in.cfg.QuantumJitter
	if j <= 0 || base <= 0 {
		return base
	}
	ts := &in.threads[thread]
	q := int64(float64(base) * (1 + j*(2*ts.rand01()-1)))
	if q < 1 {
		q = 1
	}
	return q
}
