// Package vacation re-implements STAMP's vacation: an in-memory travel
// reservation database with car/flight/room tables and customer records.
// Each client task queries several random items and reserves the cheapest
// available one per table, all in one medium-sized transaction. The
// contention level is set by the fraction of the tables the queries touch,
// matching STAMP's low-contention (-q90) and high-contention (-q10/-q60)
// run modes used for Figures 5(f)/(g).
package vacation

import (
	"fmt"
	"math/rand"

	"repro/internal/mem"
	"repro/internal/perthread"
	"repro/internal/tm"
)

// Table indices.
const (
	tabCar = iota
	tabFlight
	tabRoom
	numTables
)

// Item record layout (one cache line): [free, price, reserved].
const (
	offFree     = 0
	offPrice    = 1
	offReserved = 2
)

// Customer record layout (one cache line): [reservations, totalPrice].
const (
	offCount = 0
	offTotal = 1
)

// Config describes a vacation instance.
type Config struct {
	Relations    int // items per table
	Customers    int
	Tasks        int // total client transactions
	QueriesPer   int // random items examined per table per task
	QueryRangePc int // percent of each table the queries may touch
	Seed         int64
}

// LowContention mirrors STAMP vacation-low.
func LowContention() Config {
	return Config{Relations: 4096, Customers: 1024, Tasks: 4096,
		QueriesPer: 2, QueryRangePc: 90, Seed: 51}
}

// HighContention mirrors STAMP vacation-high.
func HighContention() Config {
	return Config{Relations: 4096, Customers: 1024, Tasks: 4096,
		QueriesPer: 4, QueryRangePc: 10, Seed: 51}
}

// App is a vacation instance.
type App struct {
	cfg Config
	sys tm.System

	tables    [numTables]mem.Addr
	customers mem.Addr

	initFree uint64
}

// New creates the app.
func New(cfg Config) *App { return &App{cfg: cfg} }

// Name implements stamp.App.
func (a *App) Name() string { return "vacation" }

// MemWords implements stamp.App.
func (a *App) MemWords() int {
	return (numTables*a.cfg.Relations+a.cfg.Customers)*mem.LineWords + 8*mem.LineWords
}

// Setup implements stamp.App.
func (a *App) Setup(sys tm.System) {
	a.sys = sys
	m := sys.Memory()
	rng := rand.New(rand.NewSource(a.cfg.Seed))
	a.initFree = 10
	for t := 0; t < numTables; t++ {
		a.tables[t] = m.AllocAligned(a.cfg.Relations * mem.LineWords)
		for i := 0; i < a.cfg.Relations; i++ {
			rec := a.item(t, i)
			m.Store(rec+offFree, a.initFree)
			m.Store(rec+offPrice, uint64(50+rng.Intn(500)))
		}
	}
	a.customers = m.AllocAligned(a.cfg.Customers * mem.LineWords)
}

func (a *App) item(table, i int) mem.Addr {
	return a.tables[table] + mem.Addr(i*mem.LineWords)
}

func (a *App) customer(c int) mem.Addr {
	return a.customers + mem.Addr(c*mem.LineWords)
}

// task runs one reservation transaction: for each table, query
// cfg.QueriesPer random items within the query range and reserve the
// cheapest one with availability.
func (a *App) task(id int, rng *rand.Rand) {
	cfg := a.cfg
	rangeSize := cfg.Relations * cfg.QueryRangePc / 100
	if rangeSize < 1 {
		rangeSize = 1
	}
	cust := rng.Intn(cfg.Customers)
	var queries [numTables][]int
	for t := 0; t < numTables; t++ {
		for q := 0; q < cfg.QueriesPer; q++ {
			queries[t] = append(queries[t], rng.Intn(rangeSize))
		}
	}
	a.sys.Atomic(id, func(x tm.Tx) {
		custRec := a.customer(cust)
		count := x.Read(custRec + offCount)
		total := x.Read(custRec + offTotal)
		reservedAny := false
		for t := 0; t < numTables; t++ {
			best := -1
			var bestPrice uint64
			for _, i := range queries[t] {
				rec := a.item(t, i)
				free := x.Read(rec + offFree)
				price := x.Read(rec + offPrice)
				if free > 0 && (best < 0 || price < bestPrice) {
					best, bestPrice = i, price
				}
			}
			if best >= 0 {
				rec := a.item(t, best)
				x.Write(rec+offFree, x.Read(rec+offFree)-1)
				x.Write(rec+offReserved, x.Read(rec+offReserved)+1)
				count++
				total += bestPrice
				reservedAny = true
			}
			x.Pause()
		}
		if reservedAny {
			x.Write(custRec+offCount, count)
			x.Write(custRec+offTotal, total)
		}
	})
}

// Run implements stamp.App.
func (a *App) Run(threads int) {
	perthread.Chunks(threads, a.cfg.Tasks, func(id, lo, hi int) {
		rng := rand.New(rand.NewSource(a.cfg.Seed + int64(id)*971))
		for i := lo; i < hi; i++ {
			a.task(id, rng)
		}
	})
}

// Validate implements stamp.App: conservation — reservations recorded on
// items equal the drop in availability and equal the total customer
// reservation count; no item oversold.
func (a *App) Validate() error {
	m := a.sys.Memory()
	var soldByItems, reservedMarks uint64
	for t := 0; t < numTables; t++ {
		for i := 0; i < a.cfg.Relations; i++ {
			rec := a.item(t, i)
			free := m.Load(rec + offFree)
			res := m.Load(rec + offReserved)
			if free > a.initFree {
				return fmt.Errorf("vacation: item (%d,%d) free %d exceeds initial %d",
					t, i, free, a.initFree)
			}
			if a.initFree-free != res {
				return fmt.Errorf("vacation: item (%d,%d) free %d and reserved %d disagree",
					t, i, free, res)
			}
			soldByItems += a.initFree - free
			reservedMarks += res
		}
	}
	var custCount uint64
	for c := 0; c < a.cfg.Customers; c++ {
		custCount += m.Load(a.customer(c) + offCount)
	}
	if custCount != soldByItems {
		return fmt.Errorf("vacation: customers hold %d reservations, items sold %d",
			custCount, soldByItems)
	}
	if reservedMarks != soldByItems {
		return fmt.Errorf("vacation: reserved marks %d != sold %d", reservedMarks, soldByItems)
	}
	return nil
}
