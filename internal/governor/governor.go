// Package governor is the resource-governance layer over the transactional
// execution kernel: the part of the stack that *acts* on sustained
// best-effort-HTM failure instead of merely absorbing it. The paper's
// premise is that hardware transactions may always fail for reasons the
// program never caused; the retry/escalation machinery in internal/exec
// guarantees each individual transaction completes, but gives no global
// policy. The governor adds two:
//
//   - A per-thread HTM circuit breaker: after a run of transactions that
//     suffered hardware aborts and were only saved by the global-lock path,
//     the thread stops attempting hardware at all and goes direct to the
//     slow path; a half-open probe every ProbeEvery-th transaction retries
//     the hardware so the fast and partitioned paths come back as soon as
//     hardware transactions succeed again. This package holds only its
//     Config: the state machine runs inside exec's contention manager,
//     next to the retry budget and the starvation score, on each thread's
//     exec.Thread, while a Governor is attached to the kernel
//     (exec.Runner.SetGovernor). The kernel also keeps, only then, the
//     per-thread in-transaction flags that exec.Runner.Inflight sums.
//   - A progress watchdog (watchdog.go): a sampling monitor over the
//     per-thread stats shards that detects stalled workers, per thread and
//     system-wide. It only observes: an alarm is counted, traced and
//     reported, and changes nothing the workers do.
package governor

// Config tunes one Governor. The zero value disables the breaker; use
// DefaultConfig for the breaker-enabled default.
type Config struct {
	// BreakerThreshold trips a thread's circuit breaker after this many
	// consecutive transactions that suffered hardware aborts and had to be
	// saved by the global-lock path. Zero disables the breaker.
	BreakerThreshold int
}

// ProbeEvery is the half-open period: while a thread's breaker is open,
// every ProbeEvery-th transaction probes the hardware.
const ProbeEvery = 16

// DefaultConfig returns the governor default: the breaker trips at 8
// consecutive hardware-failed transactions.
func DefaultConfig() Config {
	return Config{BreakerThreshold: 8}
}

// Governor is one system's governance setting. Attach via the system's
// execution kernel (exec.Runner.SetGovernor); one Governor serves one
// system instance.
type Governor struct{ cfg Config }

// New builds a governor from cfg.
func New(cfg Config) *Governor { return &Governor{cfg: cfg} }

// Config returns the governor's configuration.
func (g *Governor) Config() Config { return g.cfg }
