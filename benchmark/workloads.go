package main

import (
	"math/rand"
	"sort"

	"repro/internal/mem"
	"repro/internal/tm"
)

// The workload bodies live here, not in internal/bench, so that an edit to
// the repository's experiment workloads cannot move the benchmark's numbers.

// spec describes one workload. The two shapes are the N-reads-M-writes
// arrays of Figure 3 (listSize == 0) and the sorted list of Figure 4.
type spec struct {
	name    string
	why     string
	threads int
	// ungated keeps a workload out of BENCHMARK.json: every form of the
	// benchmark runs and reports it, but no bound is held against it.
	ungated bool
	// opsPerSlice is the transactions each thread runs in one timed slice.
	opsPerSlice int
	// roundNs and segmentNs are this workload's calibrated costs in
	// host-normalised ns: one round of slices with its flushes, and one
	// segment's set-up and oracle. They turn -seconds into a fixed
	// operation count, so that the count metrics of a seed repeat exactly.
	roundNs, segmentNs float64
	// shadowNs is the reference time of the workload's shadow, in ns per
	// transaction: about what it takes in the host's fast regime on the host
	// where the benchmark was defined, so that there normalised time is wall
	// time. Changing it re-bases the workload's timings.
	shadowNs float64

	// Array shape: reads from src then writes to dst, a partition point
	// every pauseEvery accesses (0: none).
	reads, writes, pauseEvery int

	// List shape: listSize initial keys drawn from [0, 2*listSize), half
	// the operations updates, workPerHop cycles per traversal hop and a
	// partition point every pauseEvery hops.
	listSize   int
	workPerHop int64
}

const arrayWords = 100_000

var specs = []spec{
	{
		name: "small-fast", threads: 1, opsPerSlice: 600, roundNs: 9.2e6, segmentNs: 40e6, shadowNs: 1800,
		why:   "10 reads + 10 writes fit in hardware: all fast path, cost is per-access instrumentation plus the in-HTM ring publish",
		reads: 10, writes: 10,
	},
	{
		name: "write-capacity", threads: 1, opsPerSlice: 8, roundNs: 9.5e6, segmentNs: 40e6, shadowNs: 130000,
		why:   "1200 writes exceed the 512-line write buffer: Part-HTM commits all on the partitioned path, HTM-GL all under the lock",
		reads: 64, writes: 1200, pauseEvery: 128,
	},
	{
		name: "list-10k", threads: 1, opsPerSlice: 3, roundNs: 8.7e6, segmentNs: 25e6, shadowNs: 250000,
		why:      "10k-node traversals exceed the read set and the timer quantum: read-heavy use of the partitioned path, the paper's headline shape",
		listSize: 10_000, workPerHop: 20, pauseEvery: 1024,
	},
	{
		// Ungated because its timings cannot meet any bound the contract
		// allows: see README.md, "Noise self-check".
		name: "list-1k-2t", threads: 2, ungated: true, opsPerSlice: 16, roundNs: 9.4e6, segmentNs: 12e6, shadowNs: 30000,
		why:      "1k-node list on two threads: fits in hardware, writers conflict with traversing readers, so retry and conflict handling show",
		listSize: 1000, workPerHop: 20, pauseEvery: 256,
	},
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

func (sp *spec) isList() bool { return sp.listSize > 0 }

// shape describes the workload to its shadow.
func (sp *spec) shape() shape {
	return shape{
		arrayLen: arrayWords, reads: sp.reads, writes: sp.writes,
		listSize: sp.listSize, work: int(sp.workPerHop), pauseEvery: sp.pauseEvery,
	}
}

// dataWords is the simulated memory the workload needs for ops operations.
func (sp *spec) dataWords(ops int) int {
	if sp.isList() {
		return (sp.listSize + ops + 4) * mem.LineWords
	}
	return 2*arrayWords + 4*mem.LineWords
}

// List operation kinds.
const (
	opContains = shadowContains
	opInsert   = shadowInsert
	opRemove   = shadowRemove
)

// input is one segment's pre-generated operation stream, shared by every
// system. Operation i of thread t in round r sits at ((r*threads)+t)*k + i.
type input struct {
	sp  *spec
	ops int
	// Array shape: reads+writes word indices per operation.
	idx []uint32
	// List shape: a key and a kind per operation, and the initial keys.
	keys    []uint32
	kinds   []uint8
	initial []uint32
}

// genInput draws one segment's stream from rng.
func genInput(sp *spec, ops int, rng *rand.Rand) *input {
	in := &input{sp: sp, ops: ops}
	if !sp.isList() {
		in.idx = make([]uint32, ops*(sp.reads+sp.writes))
		for i := range in.idx {
			in.idx[i] = uint32(rng.Intn(arrayWords))
		}
		return in
	}
	keyRange := 2 * sp.listSize
	in.initial = make([]uint32, 0, sp.listSize)
	for _, k := range rng.Perm(keyRange)[:sp.listSize] {
		in.initial = append(in.initial, uint32(k))
	}
	sort.Slice(in.initial, func(i, j int) bool { return in.initial[i] < in.initial[j] })
	in.keys = make([]uint32, ops)
	in.kinds = make([]uint8, ops)
	for i := 0; i < ops; i++ {
		in.keys[i] = uint32(rng.Intn(keyRange))
		switch r := rng.Intn(4); r {
		case 0:
			in.kinds[i] = opInsert
		case 1:
			in.kinds[i] = opRemove
		default:
			in.kinds[i] = opContains
		}
	}
	return in
}

// Node layout, one cache line per node: word 0 the key, word 1 the next
// node's address (0: end of list).
const (
	offKey  = 0
	offNext = 1
)

// layout is where one system's copy of the workload data sits.
type layout struct {
	src, dst   mem.Addr // array shape
	head, pool mem.Addr // list shape
}

// populate allocates and fills the workload data in sys's memory with plain
// stores, in the same order on every system.
func populate(sys tm.System, in *input) layout {
	m := sys.Memory()
	sp := in.sp
	if !sp.isList() {
		lay := layout{src: m.AllocAligned(arrayWords), dst: m.AllocAligned(arrayWords)}
		for i := 0; i < arrayWords; i++ {
			m.Store(lay.src+mem.Addr(i), uint64(i)+1)
		}
		return lay
	}
	lay := layout{head: m.AllocLines(1), pool: m.AllocLines(sp.listSize + in.ops)}
	prev := lay.head
	for i, k := range in.initial {
		n := lay.pool + mem.Addr(i*mem.LineWords)
		m.Store(n+offKey, uint64(k))
		m.Store(prev, uint64(n))
		prev = n + offNext
	}
	return lay
}

// content returns the workload's logical state for the oracle: the
// destination array's words, or the list's key sequence.
func content(sys tm.System, sp *spec, lay layout) []uint64 {
	m := sys.Memory()
	if !sp.isList() {
		out := make([]uint64, arrayWords)
		for i := range out {
			out[i] = m.Load(lay.dst + mem.Addr(i))
		}
		return out
	}
	var keys []uint64
	for cur := mem.Addr(m.Load(lay.head)); cur != 0; cur = mem.Addr(m.Load(cur + offNext)) {
		keys = append(keys, m.Load(cur+offKey))
	}
	return keys
}

// worker runs one thread's operations against one system. The current
// operation's parameters sit in fields and the bodies are built once, so the
// timed loop allocates nothing of its own.
type worker struct {
	_      [128]byte // workers of one system sit on different threads: no shared lines
	sys    tm.System
	thread int
	in     *input
	lay    layout
	rec    *recorder // non-nil on the traced pass only
	result []bool    // list shape: the return value of each operation this worker ran

	rd, wr []uint32 // array shape: the current operation's indices
	key    uint64   // list shape: the current operation's key
	node   mem.Addr // list shape: the node an insert would link
	ok     bool

	from, to int // the next slice's operations, set by the round loop

	bodies [3]func(tm.Tx) // by kind; the array shape uses bodies[0]
	_      [128]byte
}

func newWorker(sys tm.System, thread int, in *input, lay layout, rec *recorder) *worker {
	w := &worker{sys: sys, thread: thread, in: in, lay: lay, rec: rec}
	if in.sp.isList() {
		w.result = make([]bool, in.ops)
		w.bodies = [3]func(tm.Tx){opContains: w.containsBody, opInsert: w.insertBody, opRemove: w.removeBody}
	} else {
		w.bodies[0] = w.arrayBody
	}
	if rec != nil {
		for i, b := range w.bodies {
			if b != nil {
				w.bodies[i] = rec.wrapBody(b)
			}
		}
	}
	return w
}

// run executes operations [from, to) of the stream: the timed region.
func (w *worker) run(from, to int) {
	sp := w.in.sp
	for i := from; i < to; i++ {
		if w.rec != nil {
			w.rec.begin(spanOp, i)
		}
		kind := uint8(0)
		if sp.isList() {
			kind = w.in.kinds[i]
			w.key = uint64(w.in.keys[i])
			w.node = w.lay.pool + mem.Addr((sp.listSize+i)*mem.LineWords)
		} else {
			n := sp.reads + sp.writes
			w.rd = w.in.idx[i*n : i*n+sp.reads]
			w.wr = w.in.idx[i*n+sp.reads : (i+1)*n]
		}
		if w.rec == nil {
			w.sys.Atomic(w.thread, w.bodies[kind])
		} else {
			w.rec.begin(spanAtomic, i)
			w.sys.Atomic(w.thread, w.bodies[kind])
			w.rec.end(spanAtomic)
		}
		if w.result != nil {
			w.result[i] = w.ok
		}
		if w.rec != nil {
			w.rec.end(spanOp)
		}
	}
}

func (w *worker) arrayBody(x tm.Tx) {
	pe := w.in.sp.pauseEvery
	n := 0
	var acc uint64
	for _, k := range w.rd {
		acc += x.Read(w.lay.src + mem.Addr(k))
		if n++; pe > 0 && n%pe == 0 {
			x.Pause()
		}
	}
	for i, k := range w.wr {
		x.Write(w.lay.dst+mem.Addr(k), acc+uint64(i))
		if n++; pe > 0 && n%pe == 0 {
			x.Pause()
		}
	}
}

// find walks the list to the first node whose key is >= w.key, returning
// the address of the link that points at it and the node (0: end of list).
func (w *worker) find(x tm.Tx) (link, cur mem.Addr, found bool) {
	sp := w.in.sp
	link = w.lay.head
	cur = mem.Addr(x.Read(link))
	for hops := 1; cur != 0; hops++ {
		k := x.Read(cur + offKey)
		x.Work(sp.workPerHop)
		if k >= w.key {
			return link, cur, k == w.key
		}
		link = cur + offNext
		cur = mem.Addr(x.Read(link))
		if hops%sp.pauseEvery == 0 {
			x.Pause()
		}
	}
	return link, 0, false
}

func (w *worker) containsBody(x tm.Tx) {
	_, _, w.ok = w.find(x)
}

func (w *worker) insertBody(x tm.Tx) {
	link, cur, found := w.find(x)
	if w.ok = !found; found {
		return
	}
	x.Write(w.node+offKey, w.key)
	x.Write(w.node+offNext, uint64(cur))
	x.Write(link, uint64(w.node))
}

func (w *worker) removeBody(x tm.Tx) {
	link, cur, found := w.find(x)
	if w.ok = found; !found {
		return
	}
	x.Write(link, x.Read(cur+offNext))
}
