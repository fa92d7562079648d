package harness

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/stamp"
	"repro/internal/stamp/ssca2"
	"repro/internal/tm"
)

func TestBuildAllSystems(t *testing.T) {
	for _, name := range append(append([]string{}, AllSystemNames...), "Sequential") {
		sys := Build(name, BuildOptions{DataWords: 1 << 12, Threads: 2, PhysCores: 4})
		if sys == nil {
			t.Fatalf("Build(%q) returned nil", name)
		}
		if name != "Sequential" && sys.Name() != name {
			t.Errorf("Build(%q).Name() = %q", name, sys.Name())
		}
		a := sys.Memory().Alloc(1)
		sys.Atomic(0, func(x tm.Tx) { x.Write(a, 5) })
		if got := sys.Memory().Load(a); got != 5 {
			t.Errorf("%s: write lost", name)
		}
	}
}

func TestBuildUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build("NoSuchTM", BuildOptions{DataWords: 64, Threads: 1})
}

func TestEngineOf(t *testing.T) {
	for _, name := range []string{"Part-HTM", "HTM-GL", "NOrecRH"} {
		if EngineOf(Build(name, BuildOptions{DataWords: 64, Threads: 1})) == nil {
			t.Errorf("EngineOf(%s) = nil", name)
		}
	}
	for _, name := range []string{"NOrec", "RingSTM", "Sequential"} {
		if EngineOf(Build(name, BuildOptions{DataWords: 64, Threads: 1})) != nil {
			t.Errorf("EngineOf(%s) != nil", name)
		}
	}
}

func TestOversubscriptionScalesEngine(t *testing.T) {
	o := BuildOptions{DataWords: 64, Threads: 8, PhysCores: 4}
	if got := o.engineConfig().WriteLines; got != 256 {
		t.Fatalf("oversubscribed WriteLines = %d, want 256", got)
	}
	o.Threads = 4
	if got := o.engineConfig().WriteLines; got != 512 {
		t.Fatalf("non-oversubscribed WriteLines = %d, want 512", got)
	}
}

func TestThroughputCountsOps(t *testing.T) {
	sys := Build("Part-HTM", BuildOptions{DataWords: 1 << 12, Threads: 2})
	a := sys.Memory().Alloc(1)
	op := func(th int, rng *rand.Rand) {
		sys.Atomic(th, func(x tm.Tx) { x.Write(a, x.Read(a)+1) })
	}
	res := Throughput(sys, op, 2, 50*time.Millisecond, 1)
	if res.OpsPerSec <= 0 || res.Projected <= 0 {
		t.Fatalf("throughput = %+v", res)
	}
}

func TestProjectModel(t *testing.T) {
	// 1s measured with 0.25s serial, 4 threads on a 1-core host:
	// projected wall = 0.25 + 0.75/4 = 0.4375s.
	r := project(1000, time.Second, 250*time.Millisecond, 4, 1)
	if got, want := r.Projected, 1000/0.4375; got < want*0.999 || got > want*1.001 {
		t.Fatalf("Projected = %f, want %f", got, want)
	}
	if r.OpsPerSec != 1000 {
		t.Fatalf("OpsPerSec = %f", r.OpsPerSec)
	}
	// Fully serial work cannot speed up.
	r = project(1000, time.Second, time.Second, 8, 1)
	if r.Projected != 1000 {
		t.Fatalf("fully-serial Projected = %f, want 1000", r.Projected)
	}
	// On a host with enough cores the projection is the identity.
	r = project(1000, time.Second, 0, 4, 4)
	if r.Projected != 1000 {
		t.Fatalf("same-cores Projected = %f, want 1000", r.Projected)
	}
	// Serial time beyond the wall is clamped, not amplified.
	r = project(1000, time.Second, 2*time.Second, 4, 1)
	if r.Projected != 1000 {
		t.Fatalf("clamped Projected = %f", r.Projected)
	}
}

func TestSpeedupRunsAndValidates(t *testing.T) {
	mk := func() stamp.App {
		c := ssca2.Default()
		c.Nodes, c.Edges = 256, 1024
		return ssca2.New(c)
	}
	o := Options{PhysCores: 4, Seed: 1}
	res := o.Speedup(mk, "Part-HTM", 2)
	if res.Raw <= 0 || res.Projected <= 0 {
		t.Fatalf("speedup = %+v", res)
	}
}

func TestTableFormatAndBest(t *testing.T) {
	tbl := Table{
		Title:   "demo",
		Metric:  "ops",
		Threads: []int{1, 2},
		Series: []Series{
			{System: "A", Values: []float64{1, 5}},
			{System: "B", Values: []float64{2, 3}},
		},
	}
	out := tbl.Format()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "threads") {
		t.Fatalf("format output missing headers:\n%s", out)
	}
	best := tbl.Best()
	if best[0] != "B" || best[1] != "A" {
		t.Fatalf("Best = %v", best)
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{
		"table1",
		"fig3a", "fig3b", "fig3c",
		"fig4a", "fig4b",
		"fig5a", "fig5b", "fig5c", "fig5d", "fig5e", "fig5f", "fig5g", "fig5h", "fig5i",
		"fig6a", "fig6b",
	}
	for _, id := range want {
		if _, ok := Find(id); !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if _, ok := Find("fig9z"); ok {
		t.Error("Find accepted an unknown id")
	}
	if len(Experiments()) < len(want)+2 {
		t.Errorf("registry has %d experiments; the robustness experiments missing?", len(Experiments()))
	}
}

func TestTable1Runs(t *testing.T) {
	e, _ := Find("table1")
	res, err := e.Execute(Options{Threads: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Text()
	for _, needle := range []string{"HTM-GL", "Part-HTM", "capacity"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("table1 output missing %q:\n%s", needle, out)
		}
	}
	if res.ID != "table1" || len(res.Reports) != 2 {
		t.Fatalf("result = %q with %d reports", res.ID, len(res.Reports))
	}
	for _, rep := range res.Reports {
		if rep.Engine == nil {
			t.Fatalf("%s: no engine taxonomy on an engine-backed system", rep.System)
		}
		if rep.Stats.Commits() == 0 {
			t.Fatalf("%s: no commits recorded", rep.System)
		}
	}
}

func TestMicroExperimentRuns(t *testing.T) {
	e, _ := Find("fig3a")
	res, err := e.Run(Options{
		Threads:  []int{1, 2},
		Duration: 30 * time.Millisecond,
		Systems:  []string{"HTM-GL", "Part-HTM"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Text()
	if !strings.Contains(out, "Part-HTM") || !strings.Contains(out, "projected") {
		t.Fatalf("fig3a output unexpected:\n%s", out)
	}
}

// TestFig3bKeepsExplicitOptions: Figure 3(b)'s defaults fill only what the
// caller left unset. An explicit four-entry thread list stays as given, and a
// Part-HTM-no-fast already listed is not added twice.
func TestFig3bKeepsExplicitOptions(t *testing.T) {
	for _, tc := range []struct {
		in      Options
		threads []int
		systems []string
	}{
		{Options{}, []int{1, 2, 4, 8, 12, 18}, AllSystemNames},
		{Options{Threads: []int{1, 2, 3, 4}, Systems: []string{"HTM-GL"}},
			[]int{1, 2, 3, 4}, []string{"HTM-GL", "Part-HTM-no-fast"}},
		{Options{Systems: []string{"Part-HTM-no-fast"}},
			[]int{1, 2, 4, 8, 12, 18}, []string{"Part-HTM-no-fast"}},
	} {
		o := tc.in
		fig3bOpts(&o)
		if !reflect.DeepEqual(o.Threads, tc.threads) || !reflect.DeepEqual(o.Systems, tc.systems) {
			t.Errorf("fig3bOpts(threads %v, systems %v) = %v, %v; want %v, %v",
				tc.in.Threads, tc.in.Systems, o.Threads, o.Systems, tc.threads, tc.systems)
		}
	}
}
