// Package ring implements the RingSTM-style global ring of committed write
// signatures that Part-HTM uses for its in-flight validation, and that the
// RingSTM baseline uses directly.
//
// The ring lives in simulated memory so that hardware transactions can
// publish an entry atomically at commit (the paper's fast path does
// `ring[++timestamp] = write_sig` inside the hardware transaction) and so
// that software validators reading entries produce exactly the strong-
// atomicity conflicts with in-flight hardware committers that the paper's
// overhead analysis describes.
//
// # Entry layout
//
// An entry is five cache lines: a header line and four signature lines.
//
//	header word 0      sequence word: timestamp of the occupant, or Writing
//	header word 1      timestamp whose write-back completed (RingSTM)
//	header words 2-7   the signature in compact form, or the full-form flag
//	lines 1-4          the signature's 32 words (full form only)
//
// A signature with at most compactBits set bits — every small transaction's
// — is published in compact form, in the header line alone: each set bit b
// is a 12-bit field holding b+1, five fields to a word, lowest bit first;
// the first zero field ends the list, so a publisher stores only the words
// up to the one that holds the terminator and whatever an earlier
// generation left in the later words is never decoded. A denser signature
// is published in full form: fullFlag in header word 2 (above the five
// fields, so no compact word can carry it) and the 32 words in the
// signature lines. Either way a hardware publisher writes, and a validator
// reads, one line per small commit instead of five.
//
// Software publishers cannot write an entry atomically, so the sequence
// word is a seqlock: the publisher stamps it with Writing, fills the entry
// in whichever form, then stamps the timestamp; ReadEntry reads the
// sequence word, the entry, and the sequence word again, and retries
// unless both reads returned the wanted timestamp. The form is part of
// what the seqlock guards — the word that says which form the entry has is
// written inside the same Writing window as the words it describes — so a
// validator needs no check of its own for the compact form: a torn read
// (fields of one generation, flag or signature lines of another) is always
// bracketed by two different sequence values and thrown away. Every word a
// validator can load, torn or not, is one some publisher encoded, so its
// fields never index outside the signature.
package ring

import (
	"math/bits"
	"runtime"

	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/sig"
)

// Writing is the sentinel a software publisher stores in an entry's
// sequence word while the signature words are being filled.
const Writing = ^uint64(0)

// CodeRingBusy is the explicit abort code raised when a hardware publisher
// finds its ring slot still occupied by an unpublished previous generation.
const CodeRingBusy uint8 = 250

// Entry layout, in words (see the package comment). Entries are line
// aligned.
const (
	entryHeaderWords = mem.LineWords
	// EntryWords is the size of one ring entry.
	EntryWords = entryHeaderWords + sig.Words
	offSeq     = 0 // sequence word: timestamp of the occupant or Writing
	offDone    = 1 // timestamp whose write-back completed (RingSTM)
	offFields  = 2 // first compact-form word; carries fullFlag in full form

	fieldBits     = 12 // holds bit+1 for any bit of a sig.Bits signature
	fieldMask     = 1<<fieldBits - 1
	fieldsPerWord = 5
	fieldWords    = entryHeaderWords - offFields
	// compactBits is the largest signature population published in the
	// header line alone.
	compactBits = fieldWords * fieldsPerWord
	// fullFlag in word offFields marks the full form. It sits above the
	// word's fields, which are all zero in full form.
	fullFlag = 1 << 63
)

// compact encodes s into f, lowest bit first, and returns how many words of
// f a software publisher must store: those holding fields plus the one
// holding the terminating zero field. ok is false, and f is garbage, when s
// has more than compactBits bits set. It runs inside every fast-path
// hardware window, so the word and shift of the next field are carried
// along rather than divided out of the field's index.
func compact(s *sig.Signature, f *[fieldWords]uint64) (used int, ok bool) {
	w, shift := 0, uint(0)
	for i, word := range s {
		for ; word != 0; word &= word - 1 {
			if w == fieldWords {
				return 0, false
			}
			f[w] |= uint64(i<<6+bits.TrailingZeros64(word)+1) << shift
			if shift += fieldBits; shift == fieldsPerWord*fieldBits {
				w, shift = w+1, 0
			}
		}
	}
	return min(w+1, fieldWords), true
}

// expand sets in dst the bits that the compact word w lists and reports
// whether the list continues in the next word.
func expand(w uint64, dst []uint64) (more bool) {
	for shift := uint(0); shift < fieldsPerWord*fieldBits; shift += fieldBits {
		f := w >> shift & fieldMask
		if f == 0 {
			return false
		}
		dst[(f-1)>>6] |= 1 << ((f - 1) & 63)
	}
	return true
}

// Ring is a fixed-size circular buffer of committed write signatures,
// indexed by commit timestamp modulo the size.
type Ring struct {
	m      *mem.Memory
	base   mem.Addr
	size   uint64
	tsAddr mem.Addr
}

// New allocates a ring with size entries (a power of two) and a global
// timestamp word on its own cache line.
func New(m *mem.Memory, size int) *Ring {
	if size <= 0 || size&(size-1) != 0 {
		panic("ring: size must be a positive power of two")
	}
	r := &Ring{
		m:      m,
		base:   m.AllocLines(size * EntryWords / mem.LineWords),
		size:   uint64(size),
		tsAddr: m.AllocLines(1),
	}
	return r
}

// Size returns the number of entries.
func (r *Ring) Size() int { return int(r.size) }

// TimestampAddr returns the address of the global commit timestamp, for
// code that must access it transactionally (the fast path's monitored
// increment, Part-HTM-O's timestamp subscription).
func (r *Ring) TimestampAddr() mem.Addr { return r.tsAddr }

// Timestamp returns the current global commit timestamp
// (non-transactional read).
func (r *Ring) Timestamp() uint64 { return r.m.Load(r.tsAddr) }

// entryBase returns the address of the entry for timestamp ts.
func (r *Ring) entryBase(ts uint64) mem.Addr {
	return r.base + mem.Addr((ts&(r.size-1))*EntryWords)
}

// SeqAddr returns the address of the sequence word of ts's entry.
func (r *Ring) SeqAddr(ts uint64) mem.Addr { return r.entryBase(ts) + offSeq }

// DoneAddr returns the address of the write-back-done word of ts's entry.
func (r *Ring) DoneAddr(ts uint64) mem.Addr { return r.entryBase(ts) + offDone }

// SigAddr returns the address of the first signature word of ts's entry.
func (r *Ring) SigAddr(ts uint64) mem.Addr { return r.entryBase(ts) + entryHeaderWords }

// prevGen returns the sequence value the slot must carry before ts may
// claim it: the previous occupant's timestamp, or zero for the first lap.
func (r *Ring) prevGen(ts uint64) uint64 {
	if ts > r.size {
		return ts - r.size
	}
	return 0
}

// AwaitPrevPublished blocks until ts's slot carries the previous
// generation's fully-published entry. Without this gate, a publisher
// preempted long enough for the ring to lap could interleave its stores
// with the slot's next occupant and tear the entry.
func (r *Ring) AwaitPrevPublished(ts uint64) {
	a := r.SeqAddr(ts)
	want := r.prevGen(ts)
	for r.m.Load(a) != want {
		runtime.Gosched()
	}
}

// PublishSW publishes s as the committed write signature for timestamp ts
// from software (non-transactional) code. The caller must have uniquely
// claimed ts (by winning the timestamp increment); the slot generation gate
// is applied internally.
func (r *Ring) PublishSW(ts uint64, s *sig.Signature) {
	var f [fieldWords]uint64
	used, ok := compact(s, &f) // outside the window validators spin on
	r.AwaitPrevPublished(ts)
	base := r.entryBase(ts)
	r.m.Store(base+offSeq, Writing)
	if ok {
		for i := 0; i < used; i++ {
			r.m.Store(base+offFields+mem.Addr(i), f[i])
		}
	} else {
		r.m.Store(base+offFields, fullFlag)
		for i := 0; i < sig.Words; i++ {
			r.m.Store(base+entryHeaderWords+mem.Addr(i), s[i])
		}
	}
	r.m.Store(base+offSeq, ts)
}

// PublishHTM writes the entry for ts from inside a hardware transaction.
// The hardware commit makes the whole entry visible atomically, so no
// seqlock discipline is needed; the write-back-done word is stamped too
// because a hardware committer's writes are visible the instant the entry
// is. Whole cache lines are written at once — the hardware granularity:
// one for a compact entry, five for a full one.
func (r *Ring) PublishHTM(t *htm.Txn, ts uint64, s *sig.Signature) {
	base := r.entryBase(ts)
	// Slot generation gate: the previous occupant must be fully published.
	// The monitored read means a concurrent publisher dooms this
	// transaction anyway; an explicit abort covers the already-stale case.
	var header [mem.LineWords]uint64
	t.ReadLine(base, &header)
	if header[offSeq] != r.prevGen(ts) {
		t.Abort(CodeRingBusy)
	}
	header = [mem.LineWords]uint64{}
	header[offSeq] = ts
	header[offDone] = ts
	var f [fieldWords]uint64
	if _, ok := compact(s, &f); ok {
		copy(header[offFields:], f[:])
		t.WriteLine(base, &header)
		return
	}
	header[offFields] = fullFlag
	t.WriteLine(base, &header)
	var line [mem.LineWords]uint64
	for i := 0; i < sig.Lines; i++ {
		copy(line[:], s[i*mem.LineWords:(i+1)*mem.LineWords])
		t.WriteLine(base+entryHeaderWords+mem.Addr(i*mem.LineWords), &line)
	}
}

// SetDone marks ts's write-back as complete (RingSTM only).
func (r *Ring) SetDone(ts uint64) { r.m.Store(r.DoneAddr(ts), ts) }

// WaitDone blocks until the write-back of ts's entry has completed.
// Timestamp zero is the pristine ring and is always done. A done-word from
// a later generation means ts's write-back finished long ago, so any value
// >= ts satisfies the wait. That holds because RingSTM's write-backs
// complete in timestamp order: its commit loop claims now+1 only at
// snapshot now, after WaitDone(now) has returned (in Begin or advance), so
// every timestamp below a claimed one is done, and a slot's done-word only
// grows.
func (r *Ring) WaitDone(ts uint64) {
	a := r.DoneAddr(ts)
	for r.m.Load(a) < ts {
		runtime.Gosched()
	}
}

// ReadEntry copies the signature published for timestamp ts into dst,
// expanding the compact form, retrying around concurrent publication. It
// returns false when the entry has been reused by a later timestamp (ring
// rollover), in which case the validator must abort.
func (r *Ring) ReadEntry(ts uint64, dst []uint64) bool {
	if ts == 0 {
		// The pristine ring: timestamp 0 committed nothing.
		for i := range dst[:sig.Words] {
			dst[i] = 0
		}
		return true
	}
	base := r.entryBase(ts)
	for {
		s1 := r.m.Load(base + offSeq)
		switch {
		case s1 == Writing || s1 < ts:
			// Publisher in flight (it claimed ts before filling the
			// entry) — wait for it.
			runtime.Gosched()
			continue
		case s1 > ts:
			return false // overwritten: rollover
		}
		if w := r.m.Load(base + offFields); w&fullFlag != 0 {
			for i := 0; i < sig.Words; i++ {
				dst[i] = r.m.Load(base + entryHeaderWords + mem.Addr(i))
			}
		} else {
			clear(dst[:sig.Words])
			for i := mem.Addr(offFields + 1); expand(w, dst) && i < entryHeaderWords; i++ {
				w = r.m.Load(base + i)
			}
		}
		if r.m.Load(base+offSeq) == ts {
			return true
		}
	}
}

// Validate checks readSig against every write signature committed in
// (from, to]. It returns false — the caller must abort — when readSig
// intersects any of them or when the range has rolled off the ring.
func (r *Ring) Validate(readSig *sig.Signature, from, to uint64) bool {
	ok, _ := r.ValidateDetail(readSig, from, to)
	return ok
}

// ValidateDetail is Validate with the failure cause split out: rollover is
// true when validation failed because the range rolled off the ring (the
// validator fell too far behind the commit rate) rather than because of a
// genuine signature intersection. Contention managers use the distinction
// to detect persistent ring pressure.
func (r *Ring) ValidateDetail(readSig *sig.Signature, from, to uint64) (ok, rollover bool) {
	if to < from {
		return false, false
	}
	if to-from > r.size {
		return false, true // guaranteed rollover
	}
	var words [sig.Words]uint64
	for i := to; i > from; i-- {
		if !r.ReadEntry(i, words[:]) {
			return false, true
		}
		if readSig.IntersectsWords(words[:]) {
			return false, false
		}
	}
	return true, false
}
