// Package intruder re-implements STAMP's intruder: network packet
// reassembly and signature detection. Threads pull packet fragments off a
// single shared queue and insert them into per-flow reassembly slots, both
// transactionally; completed flows are scanned (detection) outside the
// transaction. The shared queue head makes transactions short but
// genuinely conflicting — the shape of Figure 5(e), where HTM handles the
// conflicts best and Part-HTM follows closely.
package intruder

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/perthread"
	"repro/internal/tm"
)

// Config describes an intruder instance.
type Config struct {
	Flows        int
	FragsPerFlow int
	DetectWork   int64 // non-transactional detection cost per completed flow
	Seed         int64
}

// Default is comparable (scaled) to STAMP intruder -a10 -l16 -n2038.
func Default() Config {
	return Config{Flows: 512, FragsPerFlow: 8, DetectWork: 400, Seed: 41}
}

// Fragment is one unit of input.
type fragment struct {
	flow int
	seq  int
}

// App is an intruder instance.
type App struct {
	cfg Config
	sys tm.System

	frags []fragment // shuffled input

	head mem.Addr // shared queue head index (the hot word)
	// Per flow, a line-aligned block: [received, done, frag_0 ...].
	flows     mem.Addr
	blockSize int

	detected atomic.Uint64
}

// New creates the app.
func New(cfg Config) *App { return &App{cfg: cfg} }

// Name implements stamp.App.
func (a *App) Name() string { return "intruder" }

func (c Config) blockSize() int {
	return (c.FragsPerFlow + 2 + mem.LineWords - 1) / mem.LineWords * mem.LineWords
}

// MemWords implements stamp.App.
func (a *App) MemWords() int {
	return a.cfg.Flows*a.cfg.blockSize() + 8*mem.LineWords
}

// Setup implements stamp.App.
func (a *App) Setup(sys tm.System) {
	a.sys = sys
	a.blockSize = a.cfg.blockSize()
	a.head = sys.Memory().AllocLines(1)
	a.flows = sys.Memory().AllocAligned(a.cfg.Flows * a.blockSize)
	a.frags = make([]fragment, 0, a.cfg.Flows*a.cfg.FragsPerFlow)
	for f := 0; f < a.cfg.Flows; f++ {
		for s := 0; s < a.cfg.FragsPerFlow; s++ {
			a.frags = append(a.frags, fragment{flow: f, seq: s})
		}
	}
	rng := rand.New(rand.NewSource(a.cfg.Seed))
	rng.Shuffle(len(a.frags), func(i, j int) {
		a.frags[i], a.frags[j] = a.frags[j], a.frags[i]
	})
}

func (a *App) flow(f int) mem.Addr { return a.flows + mem.Addr(f*a.blockSize) }

// Run implements stamp.App.
func (a *App) Run(threads int) {
	total := uint64(len(a.frags))
	perthread.Run(threads, func(id int) {
		for {
			var have, completed bool
			a.sys.Atomic(id, func(x tm.Tx) {
				have, completed = false, false
				h := x.Read(a.head)
				if h >= total {
					return
				}
				x.Write(a.head, h+1)
				// Body-local fragment: captured variables must be
				// write-only result slots because the body may rerun on
				// abort (enforced by parthtm-vet).
				f := a.frags[h]
				have = true
				base := a.flow(f.flow)
				rcv := x.Read(base)
				x.Write(base+2+mem.Addr(f.seq), uint64(f.seq)+1)
				x.Write(base, rcv+1)
				if rcv+1 == uint64(a.cfg.FragsPerFlow) {
					x.Write(base+1, 1) // flow complete
					completed = true
				}
			})
			if !have {
				return
			}
			if completed {
				// Detection scan runs outside the transaction.
				tm.Spin(a.cfg.DetectWork)
				a.detected.Add(1)
			}
		}
	})
}

// Validate implements stamp.App: every flow fully reassembled exactly
// once, every fragment slot filled, detection count equals flow count.
func (a *App) Validate() error {
	m := a.sys.Memory()
	if got := m.Load(a.head); got != uint64(len(a.frags)) {
		return fmt.Errorf("intruder: queue head = %d, want %d", got, len(a.frags))
	}
	for f := 0; f < a.cfg.Flows; f++ {
		base := a.flow(f)
		if got := m.Load(base); got != uint64(a.cfg.FragsPerFlow) {
			return fmt.Errorf("intruder: flow %d received %d fragments, want %d",
				f, got, a.cfg.FragsPerFlow)
		}
		if m.Load(base+1) != 1 {
			return fmt.Errorf("intruder: flow %d not marked complete", f)
		}
		for s := 0; s < a.cfg.FragsPerFlow; s++ {
			if got := m.Load(base + 2 + mem.Addr(s)); got != uint64(s)+1 {
				return fmt.Errorf("intruder: flow %d slot %d = %d", f, s, got)
			}
		}
	}
	if got := a.detected.Load(); got != uint64(a.cfg.Flows) {
		return fmt.Errorf("intruder: detected %d flows, want %d", got, a.cfg.Flows)
	}
	return nil
}
