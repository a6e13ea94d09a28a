// Command memcnnvet is the repository's custom multichecker: it runs the
// internal/analyzers passes — noalloc, ctxflow, atomicalign — over the given
// package patterns and exits non-zero on any finding.  CI runs it next to
// `go vet` as a dedicated, build-failing step:
//
//	go run ./cmd/memcnnvet ./...
//
// Findings print one per line as file:line:col: [analyzer] message.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"memcnn/internal/analyzers"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: findings go to stdout, usage and errors to
// stderr, and the result is the exit status (0 clean, 1 findings, 2 the
// packages could not be analyzed at all).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("memcnnvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: memcnnvet [-run analyzers] [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers.All() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	selected := analyzers.All()
	if *only != "" {
		byName := make(map[string]*analyzers.Analyzer)
		for _, a := range analyzers.All() {
			byName[a.Name] = a
		}
		selected = selected[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "memcnnvet: unknown analyzer %q\n", name)
				return 2
			}
			selected = append(selected, a)
		}
	}

	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "memcnnvet: %v\n", err)
		return 2
	}
	pkgs, err := analyzers.Load(dir, fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "memcnnvet: %v\n", err)
		return 2
	}

	diags := analyzers.Run(pkgs, selected)
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
