// Command parthtm-vet statically enforces the two transactional-memory
// rules whose violations no test or race run sees: the purity contract on
// transaction bodies and the hardware-transaction-window restrictions.
// See DESIGN.md §9.
//
// Usage:
//
//	go run ./cmd/parthtm-vet ./...
//
// The tool analyses the whole module as one program (htmregion's window
// walks cross package boundaries), so it does not run as a per-package
// `go vet -vettool`. A walk judges only callees whose package is in the
// load: give it ./... to check what CI checks.
//
// Exit status: 0 when no diagnostics, 2 when the analyzers found
// violations or the command line is bad, 1 on operational errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: parthtm-vet [package patterns]\n\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-13s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	diags, err := analysis.Check("", analysis.All(), patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parthtm-vet: %v\n", err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}
