// Testdata for the singlewriter analyzer.
package singlewriter

import (
	"repro/internal/domain"
	"repro/internal/exec"
	"repro/internal/tm"
)

var global tm.Shard

var aggregate tm.Counter

// good: the sanctioned accessors tie the shard to the calling thread.
func viaStats(st *tm.Stats, thread int) {
	st.Shard(thread).CommitsHTM.Inc()
	sh := st.Shard(thread)
	sh.CommitsSW.Add(3)
}

// good: (*exec.Thread).Shard is per-thread by construction.
func viaThread(t *exec.Thread) {
	t.Shard().CommitsHTM.Inc()
}

// good: a *tm.Shard parameter means the caller vouches for ownership.
func viaParam(sh *tm.Shard) {
	sh.CommitsHTM.Inc()
}

type worker struct{ sh *tm.Shard }

// good: a cached per-thread field.
func (w *worker) hit() { w.sh.CommitsSW.Inc() }

// bad: ranging visits shards owned by other threads.
func overAll(shards []*tm.Shard) {
	for _, sh := range shards { // want `ranging over all shards`
		sh.CommitsHTM.Inc()
	}
}

// bad: indexing with an arbitrary index proves nothing about ownership.
func byIndex(shards []*tm.Shard, i int) {
	shards[i].CommitsHTM.Inc() // want `indexed out of a shard slice`
}

// bad: the alias does not launder the indexed origin.
func byAlias(shards []*tm.Shard, i int) {
	sh := shards[i] // want `indexed out of a shard slice`
	sh.CommitsSW.Add(1)
}

// bad: a package-level shard is shared by every thread.
func onGlobal() {
	global.CommitsHTM.Inc() // want `package-level shard`
}

// bad: a Counter outside any shard is an aggregate.
func onAggregate() {
	aggregate.Inc() // want `outside a tm.Shard`
}

// good: suppressed — the annotation claims single-threaded context.
// parthtm:owner — runs after every worker has joined
func summarize(shards []*tm.Shard) {
	for _, sh := range shards {
		sh.CommitsHTM.Inc()
	}
}

// good: (*domain.TxnState).Shard is owner-bound — the state belongs to one
// thread and its shard pointer was bound to that owner at construction.
func viaTxnState(st *domain.TxnState) {
	st.Shard().CommitsSW.Inc()
	sh := st.Shard()
	sh.CommitsHTM.Inc()
}
