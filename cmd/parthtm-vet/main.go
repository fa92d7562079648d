// Command parthtm-vet statically enforces this repository's transactional-
// memory discipline: the single-writer contract on tm.Counter, the ban on
// mixed atomic/plain access, the purity contract on transaction bodies,
// the hardware-transaction-window restrictions, the static footprint
// bounds on transaction bodies, and the domain commit walk order. See
// DESIGN.md §9 and §14.
//
// Usage:
//
//	go run ./cmd/parthtm-vet ./...
//
// Profile reconciliation — cross-check the static footprint bounds
// against a recorded tmprof series (see DESIGN.md §14):
//
//	go run ./cmd/parthtm-bench -exp heatmap -prof-out profile.json
//	go run ./cmd/parthtm-vet -prof profile.json ./internal/harness
//
// The tool analyses the whole module as one program (htmregion's window
// walks and txfootprint's callee summaries cross package boundaries), so
// it does not run as a per-package `go vet -vettool`. A walk judges only
// callees whose package is in the load: give it ./... to check what CI
// checks.
//
// Exit status: 0 when no diagnostics, 2 when the analyzers found
// violations (or reconciliation found an underestimate), 1 on
// operational errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("parthtm-vet", flag.ContinueOnError)
	profIn := fs.String("prof", "", "reconcile static footprint bounds against this tmprof JSON series")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: parthtm-vet [-prof series.json] [package patterns]\n\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(fs.Output(), "  %-13s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(fs.Output(), "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}

	// Profile reconciliation mode: no analyzer diagnostics, just the
	// static-vs-observed footprint comparison.
	if *profIn != "" {
		mismatches, err := analysis.CheckProfile("", *profIn, patterns...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parthtm-vet: %v\n", err)
			return 1
		}
		for _, m := range mismatches {
			fmt.Fprintln(os.Stderr, m)
		}
		if len(mismatches) > 0 {
			return 2
		}
		fmt.Fprintf(os.Stderr, "parthtm-vet: profile reconciles with the static footprint bounds\n")
		return 0
	}

	diags, err := analysis.Check("", analysis.All(), patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parthtm-vet: %v\n", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
