package stamp_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/htm"
	"repro/internal/htmgl"
	"repro/internal/mem"
	"repro/internal/norec"
	"repro/internal/norecrh"
	"repro/internal/ringstm"
	"repro/internal/seq"
	"repro/internal/stamp"
	"repro/internal/stamp/genome"
	"repro/internal/stamp/intruder"
	"repro/internal/stamp/kmeans"
	"repro/internal/stamp/labyrinth"
	"repro/internal/stamp/ssca2"
	"repro/internal/stamp/vacation"
	"repro/internal/stamp/yada"
	"repro/internal/tm"
)

// sysFactory builds a system over a memory of at least words words.
type sysFactory struct {
	name string
	make func(words, threads int) tm.System
}

func engine(words int) *htm.Engine {
	cfg := htm.DefaultConfig()
	cfg.ReadEvictProb = 0 // deterministic tests
	return htm.New(mem.New(words), cfg)
}

func factories() []sysFactory {
	return []sysFactory{
		{"Part-HTM", func(w, n int) tm.System {
			return core.New(engine(w), n, core.DefaultConfig())
		}},
		{"Part-HTM-O", func(w, n int) tm.System {
			cfg := core.DefaultConfig()
			cfg.Opaque = true
			return core.New(engine(2*w+1<<18), n, cfg)
		}},
		{"HTM-GL", func(w, n int) tm.System {
			return htmgl.New(engine(w), n, htmgl.DefaultConfig())
		}},
		{"NOrec", func(w, n int) tm.System { return norec.New(mem.New(w), n) }},
		{"RingSTM", func(w, n int) tm.System { return ringstm.New(mem.New(w), n, 1024) }},
		{"NOrecRH", func(w, n int) tm.System {
			return norecrh.New(engine(w), n)
		}},
	}
}

// apps returns small test-sized instances of every STAMP application.
func apps() map[string]func() stamp.App {
	return map[string]func() stamp.App{
		"kmeans-low": func() stamp.App {
			c := kmeans.LowContention()
			c.Points, c.Iterations = 400, 3
			return kmeans.New(c)
		},
		"kmeans-high": func() stamp.App {
			c := kmeans.HighContention()
			c.Points, c.Iterations = 400, 3
			return kmeans.New(c)
		},
		"ssca2": func() stamp.App {
			c := ssca2.Default()
			c.Nodes, c.Edges = 512, 2048
			return ssca2.New(c)
		},
		"labyrinth": func() stamp.App {
			c := labyrinth.Default()
			c.W, c.H, c.Pairs, c.LongDist = 48, 48, 16, 24
			return labyrinth.New(c)
		},
		"intruder": func() stamp.App {
			c := intruder.Default()
			c.Flows = 96
			return intruder.New(c)
		},
		"vacation-low": func() stamp.App {
			c := vacation.LowContention()
			c.Relations, c.Tasks, c.Customers = 512, 400, 128
			return vacation.New(c)
		},
		"vacation-high": func() stamp.App {
			c := vacation.HighContention()
			c.Relations, c.Tasks, c.Customers = 512, 400, 128
			return vacation.New(c)
		},
		"yada": func() stamp.App {
			c := yada.Default()
			c.Elements, c.InitialBad = 512, 64
			return yada.New(c)
		},
		"genome": func() stamp.App {
			c := genome.Default()
			c.Gene, c.Segments, c.HashSlots = 256, 2048, 1024
			return genome.New(c)
		},
	}
}

// TestSequentialBaseline: every app must run and validate on the
// sequential executor — the ground truth for the speed-up figures.
func TestSequentialBaseline(t *testing.T) {
	for name, mk := range apps() {
		t.Run(name, func(t *testing.T) {
			app := mk()
			sys := seq.New(mem.New(app.MemWords() + 1<<14))
			app.Setup(sys)
			app.Run(1)
			if err := app.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAllAppsAllSystems: every app validates on every transactional system
// at 4 threads.
func TestAllAppsAllSystems(t *testing.T) {
	for appName, mk := range apps() {
		for _, f := range factories() {
			t.Run(appName+"/"+f.name, func(t *testing.T) {
				t.Parallel()
				app := mk()
				sys := f.make(app.MemWords()+1<<18, 4)
				app.Setup(sys)
				app.Run(4)
				if err := app.Validate(); err != nil {
					t.Fatal(err)
				}
				if sys.Stats().Commits() == 0 {
					t.Fatal("no transactions committed")
				}
			})
		}
	}
}

// TestLabyrinthResourceProfile checks the Table 1 precondition: under
// HTM-GL a majority of labyrinth's aborts are resource (capacity/other)
// aborts, and a substantial share of commits go through the global lock;
// under Part-HTM the partitioned path absorbs them.
func TestLabyrinthResourceProfile(t *testing.T) {
	mkApp := func() stamp.App {
		c := labyrinth.Default()
		return labyrinth.New(c)
	}

	app := mkApp()
	gl := htmgl.New(engine(app.MemWords()+1<<18), 4, htmgl.DefaultConfig())
	app.Setup(gl)
	app.Run(4)
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	glEng := gl.Engine().Stats()
	resource := glEng.AbortsCapacity.Load() + glEng.AbortsOther.Load()
	total := glEng.Aborts()
	if total == 0 || resource*2 < total {
		t.Fatalf("HTM-GL labyrinth: resource aborts %d of %d — expected a resource-dominated profile", resource, total)
	}
	glStats := gl.Stats().Snapshot()
	if glStats.CommitsGL == 0 {
		t.Fatalf("HTM-GL labyrinth: no global-lock commits: %+v", glStats)
	}

	app2 := mkApp()
	ph := core.New(engine(app2.MemWords()+1<<18), 4, core.DefaultConfig())
	app2.Setup(ph)
	app2.Run(4)
	if err := app2.Validate(); err != nil {
		t.Fatal(err)
	}
	phStats := ph.Stats().Snapshot()
	if phStats.CommitsSW == 0 {
		t.Fatalf("Part-HTM labyrinth: partitioned path unused: %+v", phStats)
	}
	if phStats.CommitsGL > phStats.Commits()/10 {
		t.Fatalf("Part-HTM labyrinth: too many global-lock commits: %+v", phStats)
	}
}
