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
//     publisher in Part-HTM's global commit). A writing fast commit draws
//     it whether or not it publishes: it skips the ring while no
//     partitioned transaction runs;
//   - SiteLockSigRead: the monitored read of the shared write-locks
//     signature that gates every Part-HTM validation.
//
// Two mechanisms decide whether a fault fires, checked in order:
//
//  1. Scripted schedules: a per-thread FIFO of events, each forcing a
//     specific abort.Reason (and _xabort code) at a specific site for a
//     given number of draws. Scripts make pathological interleavings —
//     two transactions forever invalidating each other — exactly
//     reproducible.
//  2. Per-site probabilities, drawn from a per-thread seeded generator,
//     so two runs with the same seed inject the same faults at the same
//     per-thread decision points, however the threads interleave. A rate
//     of 1 at SiteHTMBegin is an abort storm: every hardware attempt fails.
//
// A Campaign is a list of per-site rate tables, one per phase. The current
// phase's table replaces the Config-level one, and only AdvancePhase moves
// to the next phase: the caller decides when a phase ends.
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

	"repro/internal/abort"
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

// InjectedCode is the _xabort code carried by injected Explicit aborts
// that do not specify one.
const InjectedCode uint8 = 0xFF

// SiteRate is the probabilistic model of one site: each draw fires with
// probability Prob and aborts with Reason (abort.Conflict if unset).
type SiteRate struct {
	Prob   float64
	Reason abort.Reason
}

// ScriptEvent forces Count draws at Site (for the scripted thread) to
// abort with Reason and, for Explicit, the given _xabort Code. Events of
// one thread's script fire strictly in order: draws at other sites pass
// through (rates still apply) until the head event's site comes up.
type ScriptEvent struct {
	Site   Site
	Reason abort.Reason
	Code   uint8
	Count  int
}

// Phase is one stage of a multi-phase chaos Campaign: its own per-site
// rates, in force while it is current — phase 0 from New, each later one
// from the AdvancePhase call that reaches it.
type Phase struct {
	Name  string
	Rates [NumSites]SiteRate
}

// MaxSlots is the number of hardware thread slots: an htm engine's contexts,
// one reader bit each in a line's monitor entry, and the threads an injector
// covers. It is defined here, and named by htm.MaxSlots, because htm imports
// this package.
const MaxSlots = 24

// Config describes one injector. The zero value injects nothing.
type Config struct {
	// Seed makes every probabilistic decision reproducible; per-thread
	// generators are derived from it.
	Seed int64
	// Rates is the per-site probabilistic fault model.
	Rates [NumSites]SiteRate
	// QuantumJitter perturbs each transaction's timer quantum by a factor
	// uniform in [1-QuantumJitter, 1+QuantumJitter].
	QuantumJitter float64
	// Scripts holds per-thread forced schedules.
	Scripts map[int][]ScriptEvent
	// Campaign, when non-empty, sequences multi-phase chaos (storm →
	// sustained degradation → clear): the current phase's Rates replace the
	// Config-level ones, while Scripts and QuantumJitter stay in force
	// throughout. Phases advance only via AdvancePhase; the last phase holds
	// forever.
	Campaign []Phase
}

// Validate checks cfg for malformed values — NaN or out-of-range
// probabilities, unknown reasons or sites, script events for thread slots
// the injector does not cover — and returns an explicit error
// for the first problem found. New panics on an invalid config, so callers
// building configs from user input (flags, JSON) should Validate first and
// report the error gracefully.
func (cfg *Config) Validate() error {
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
	for th, evs := range cfg.Scripts {
		if th < 0 || th >= MaxSlots {
			return fmt.Errorf("fault: Scripts[%d] outside thread range [0,%d)", th, MaxSlots)
		}
		for j, ev := range evs {
			where := fmt.Sprintf("Scripts[%d][%d]", th, j)
			if ev.Site >= NumSites {
				return fmt.Errorf("fault: %s targets unknown site %d", where, ev.Site)
			}
			if ev.Reason >= abort.Count {
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
	if r.Reason >= abort.Count {
		return fmt.Errorf("fault: %s has unknown reason %d", where, r.Reason)
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

// Injector decides, per protocol site and thread, whether to inject a
// fault. One injector serves one engine (and the software framework above
// it); all methods except the per-thread Draw state are concurrency safe.
type Injector struct {
	cfg     Config
	threads [MaxSlots]threadState
	phase   atomic.Int32 // current Campaign index; only AdvancePhase moves it
	stats   Stats
}

// New builds an injector from cfg. It panics if cfg is invalid; callers
// holding untrusted configs should call Validate first.
func New(cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	in := &Injector{cfg: cfg}
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
	return in
}

// Stats returns the injector's counters.
func (in *Injector) Stats() *Stats { return &in.stats }

// PhaseIndex returns the index of the current campaign phase, or -1 when
// the injector runs no campaign.
func (in *Injector) PhaseIndex() int {
	if len(in.cfg.Campaign) == 0 {
		return -1
	}
	return int(in.phase.Load())
}

// PhaseName returns the name of the current campaign phase ("" when the
// injector runs no campaign).
func (in *Injector) PhaseName() string {
	if len(in.cfg.Campaign) == 0 {
		return ""
	}
	return in.cfg.Campaign[in.phase.Load()].Name
}

// AdvancePhase moves the campaign to its next phase and returns the index
// of the phase now current; calling past the last phase (or without a
// campaign) is a no-op.
func (in *Injector) AdvancePhase() int {
	for {
		i := in.phase.Load()
		if int(i)+1 >= len(in.cfg.Campaign) {
			return in.PhaseIndex()
		}
		if in.phase.CompareAndSwap(i, i+1) {
			return int(i) + 1
		}
	}
}

// rand01 advances thread state ts and returns a uniform float64 in [0,1).
func (ts *threadState) rand01() float64 {
	ts.rng = ts.rng*6364136223846793005 + 1442695040888963407
	return float64(ts.rng>>11) / float64(1<<53)
}

func reasonOr(r abort.Reason) abort.Reason {
	if r == abort.None {
		return abort.Conflict
	}
	return r
}

// Draw decides whether a fault fires at site for thread, returning the
// abort reason and _xabort code when it does. Draw must only be called by
// the thread owning the slot (the same discipline the HTM engine already
// imposes).
func (in *Injector) Draw(site Site, thread int) (abort.Reason, uint8, bool) {
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
		if ev.Reason == abort.Explicit && code == 0 {
			code = InjectedCode
		}
		return reasonOr(ev.Reason), code, true
	}

	// 2. Per-site probability, from the current campaign phase's table when
	// a campaign runs and the config-level one otherwise.
	rates := &in.cfg.Rates
	if len(in.cfg.Campaign) > 0 {
		rates = &in.cfg.Campaign[in.phase.Load()].Rates
	}
	if r := &rates[site]; r.Prob > 0 && ts.rand01() < r.Prob {
		in.stats.Injected[site].Add(1)
		return reasonOr(r.Reason), InjectedCode, true
	}
	return abort.None, 0, false
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
