package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/mem"
)

var tinyPlan = plan{segments: 2, rounds: 3}

// counts is every metric of a pass that is an exact count, as the JSON a
// report would carry.
func counts(t *testing.T, res *result) string {
	t.Helper()
	vals := countValues(res)
	for n, v := range endToEndValues(res) {
		if strings.HasSuffix(n, ".nolock_share") {
			vals[n] = v
		}
	}
	data, err := json.Marshal(vals)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestCountMetricsRepeatOnOneThread(t *testing.T) {
	for _, name := range []string{"small-fast", "write-capacity", "list-10k"} {
		sp := findSpec(name)
		a := runWorkload(sp, 7, tinyPlan, false, newHost())
		b := runWorkload(sp, 7, tinyPlan, false, newHost())
		if a.failed != 0 || b.failed != 0 {
			t.Fatalf("%s: oracle rejected a run: %v %v", name, a.errs, b.errs)
		}
		if a.attempted == 0 {
			t.Fatalf("%s: nothing attempted", name)
		}
		ca, cb := counts(t, a), counts(t, b)
		if ca != cb {
			t.Errorf("%s: count metrics differ between two runs of one seed:\n%s\n%s", name, ca, cb)
		}
		if name == "write-capacity" {
			vals := countValues(a)
			if vals["tm.parthtm.sw_share"] != 1 || vals["tm.htmgl.gl_share"] != 1 {
				t.Errorf("write-capacity: Part-HTM must commit all on the partitioned path and HTM-GL all under the lock, got %s", ca)
			}
		}
	}
}

func TestSeedSelectsTheInput(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		gen := func(seed int64) *input { return genInput(sp, 8, rand.New(rand.NewSource(seed))) }
		if !reflect.DeepEqual(gen(1), gen(1)) {
			t.Errorf("%s: one seed gave two inputs", sp.name)
		}
		if reflect.DeepEqual(gen(1), gen(2)) {
			t.Errorf("%s: two seeds gave one input", sp.name)
		}
	}
}

// segment builds every system, runs ops operations of sp on each from
// thread 0 and returns them as the oracle sees them.
func segment(sp *spec, ops int) []*participant {
	in := genInput(sp, ops, rand.New(rand.NewSource(3)))
	opts := harness.BuildOptions{DataWords: sp.dataWords(ops), Threads: sp.threads, Seed: 1}
	var parts []*participant
	for _, s := range append(measured[:len(measured):len(measured)], seqSystem) {
		sys := harness.Build(s.name, opts)
		p := bind(sys, in, populate(sys, in), []*recorder{nil})
		p.workers[0].run(0, ops)
		parts = append(parts, p)
	}
	return parts
}

// The shadow is a system's unit of time only if it does the system's work:
// run on the same operations, it must end with the same data.
func TestShadowRunsTheSameOperations(t *testing.T) {
	for _, name := range []string{"small-fast", "write-capacity", "list-10k"} {
		sp := findSpec(name)
		const ops = 24
		parts := segment(sp, ops)
		seq := parts[seqIndex]
		in := seq.workers[0].in
		sh := newShadow(sp.shape(), ops, in.initial)
		var got []uint64
		if sp.isList() {
			sh.list(in.keys, in.kinds, 0, ops)
			for cur := sh.words[0]; cur != 0; cur = sh.words[cur+1] {
				got = append(got, sh.words[cur])
			}
		} else {
			sh.arrays(in.idx, 0, ops)
			got = sh.words[arrayWords:]
		}
		if want := content(seq.sys, sp, seq.lay); !slices.Equal(got, want) {
			t.Errorf("%s: the shadow's data differs from Sequential's after the same operations", name)
		}
	}
}

func TestOracleRejectsWrongContent(t *testing.T) {
	sp := findSpec("small-fast")
	parts := segment(sp, 6)
	res := &result{sp: sp}
	if res.check(0, parts); res.failed != 0 || res.attempted != 18 {
		t.Fatalf("clean segment: attempted %d failed %d: %v", res.attempted, res.failed, res.errs)
	}
	word := parts[1].lay.dst + mem.Addr(parts[1].workers[0].in.idx[sp.reads])
	parts[1].sys.Memory().Store(word, ^uint64(0))
	res = &result{sp: sp}
	if res.check(0, parts); res.failed != 6 || len(res.errs) != 1 || !strings.Contains(res.errs[0], "parthtmo") {
		t.Fatalf("one wrong word on Part-HTM-O: failed %d, errors %v", res.failed, res.errs)
	}
}

func TestOracleRejectsBrokenList(t *testing.T) {
	sp := findSpec("list-1k-2t")
	parts := segment(sp, 40)
	res := &result{sp: sp}
	if res.check(0, parts); res.failed != 0 {
		t.Fatalf("clean segment: %v", res.errs)
	}
	// Unsorted: give the first node the largest key.
	p := parts[2]
	m := p.sys.Memory()
	first := mem.Addr(m.Load(p.lay.head))
	key := m.Load(first + offKey)
	m.Store(first+offKey, uint64(4*sp.listSize))
	res = &result{sp: sp}
	if res.check(0, parts); res.failed != 40 || !strings.Contains(res.errs[0], "sorted") {
		t.Fatalf("unsorted list on HTM-GL: failed %d, errors %v", res.failed, res.errs)
	}
	// Wrong length: unlink the first node.
	m.Store(first+offKey, key)
	m.Store(p.lay.head, m.Load(first+offNext))
	res = &result{sp: sp}
	if res.check(0, parts); res.failed != 40 || !strings.Contains(res.errs[0], "holds") {
		t.Fatalf("lost node on HTM-GL: failed %d, errors %v", res.failed, res.errs)
	}
}

func TestTracedSpansNest(t *testing.T) {
	for _, name := range []string{"write-capacity", "list-1k-2t"} {
		sp := findSpec(name)
		res := runWorkload(sp, 1, tinyPlan, true, newHost())
		if res.failed != 0 {
			t.Fatalf("%s: %v", name, res.errs)
		}
		if len(res.tracks) != len(measured)*sp.threads {
			t.Fatalf("%s: %d tracks", name, len(res.tracks))
		}
		for _, tr := range res.tracks {
			if len(tr.Spans) == 0 {
				t.Fatalf("%s %s/%d: no spans", name, tr.System, tr.Thread)
			}
			seen := map[string]bool{}
			for i, s := range tr.Spans {
				seen[s.Name] = true
				if s.ID != i+1 || s.End < s.Start {
					t.Fatalf("%s %s: span %+v at index %d", name, tr.System, s, i)
				}
				kind := indexOf(spanNames[:], s.Name)
				if kind == 0 {
					if s.Parent != 0 {
						t.Fatalf("%s: op span with a parent: %+v", name, s)
					}
					continue
				}
				if s.Parent < 1 || s.Parent >= s.ID {
					t.Fatalf("%s: span %+v has no earlier parent", name, s)
				}
				p := tr.Spans[s.Parent-1]
				if p.Name != spanNames[kind-1] || p.Op != s.Op || s.Start < p.Start || s.End > p.End {
					t.Fatalf("%s: span %+v does not nest in %+v", name, s, p)
				}
			}
			for _, n := range spanNames {
				if !seen[n] {
					t.Errorf("%s %s: no %s span", name, tr.System, n)
				}
			}
		}
		sr := &res.sys[2]
		if name == "write-capacity" && sr.bodies != 6*sr.atomics {
			t.Errorf("write-capacity: HTM-GL ran %d bodies for %d transactions, want 5 failed attempts and the lock", sr.bodies, sr.atomics)
		}
	}
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// lastLine decodes the last line of a driver run.
func lastLine(t *testing.T, out string) map[string]json.RawMessage {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return line
}

func TestDriverRunPrintsEveryMetricOfItsPass(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	for _, c := range []struct {
		workload, trace string
		defs            []metricDef
	}{
		{"small-fast", "0", endToEnd},
		{"list-1k-2t", "1", perLayer()},
	} {
		var out, log bytes.Buffer
		code := run([]string{"-quick", "--workload", c.workload, "--seed", "5", "--seconds", "1", "--trace", c.trace}, &out, &log)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s", c.workload, code, log.String())
		}
		line := lastLine(t, out.String())
		if len(line) != 4 || string(line["correct"]) != "true" || string(line["failed"]) != "0" || line["attempted"] == nil {
			t.Fatalf("%s: result line %s", c.workload, out.String())
		}
		var metrics map[string]value
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(c.defs) {
			t.Errorf("%s: %d metrics, want %d", c.workload, len(metrics), len(c.defs))
		}
		for _, d := range c.defs {
			if m, ok := metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s: metric %s: %+v", c.workload, d.name, m)
			}
		}
		if c.trace == "1" {
			data, err := os.ReadFile("out/trace-" + c.workload + ".json")
			var tf traceFile
			if err != nil || json.Unmarshal(data, &tf) != nil || len(tf.Tracks) == 0 {
				t.Errorf("%s: trace file: %v", c.workload, err)
			}
		}
	}
	var out, log bytes.Buffer
	if code := run([]string{"-workload", "no-such"}, &out, &log); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, output %q", code, out.String())
	}
}

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	same := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s: bad or repeated metric %+v", kind, d)
			}
			seen[d.name] = true
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s: BENCHMARK.json has %+v, the benchmark %+v", kind, g, d)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer())
	var gated []spec
	for _, sp := range specs {
		if !sp.ungated {
			gated = append(gated, sp)
		}
	}
	if len(bj.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark gates %d", len(bj.Workloads), len(gated))
	}
	for i, w := range bj.Workloads {
		if w.Name != gated[i].name || w.Why != gated[i].why || !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, w, gated[i].name, gated[i].why)
		}
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" || bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bj.Paths, bj.RunSeconds)
	}
}

// Changing this re-bases every timing metric: the yardstick's access mix, its
// shadow and kernels and the reference readings C0 and M0 define the unit all
// timings are reported in (with each workload's shadowNs in workloads.go). A
// change here must be its own benchmark change, with the baseline measured
// again.
func TestYardstickIsPinned(t *testing.T) {
	const (
		wantFile = "6a9e8fc4248e4eff88caa7ed04930752eb8734eac5bd003ca52221fe79be8cba"
		wantSum  = uint64(1885125328745476874)
		wantSpin = uint64(18584574)
	)
	data, err := os.ReadFile("yardstick.go")
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != wantFile {
		t.Errorf("yardstick.go changed: sha256 %s", hex.EncodeToString(sum[:]))
	}
	y := newYardstick()
	y.slice()
	y.slice()
	if y.sum != wantSum {
		t.Errorf("two yardstick slices computed %d, want %d", y.sum, wantSum)
	}

	// The shadow on a list of three keys: contains, insert, remove.
	sh := newShadow(shape{listSize: 3, work: 20, pauseEvery: 2}, 3, []uint32{2, 4, 6})
	sh.list([]uint32{4, 5, 2}, []uint8{shadowContains, shadowInsert, shadowRemove}, 0, 3)
	var keys []uint64
	for cur := sh.words[0]; cur != 0; cur = sh.words[cur+1] {
		keys = append(keys, sh.words[cur])
	}
	if !slices.Equal(keys, []uint64{4, 5, 6}) || sh.sum != wantSpin {
		t.Errorf("the shadow's list holds %v after spinning to %d, want [4 5 6] and %d", keys, sh.sum, wantSpin)
	}
}
