// Command arbd-lint runs the repository's custom static-analysis suite:
// hot-path allocation discipline, wire-protocol value pinning, lock-order
// rules, metrics-handle caching, exported code with no caller outside the
// tests, and the fence around paper reproduction. See internal/lint for the
// analyzers and the README "Static analysis" section for the annotation
// conventions.
//
// Usage:
//
//	go run ./cmd/arbd-lint ./...
//	go run ./cmd/arbd-lint ./internal/server/... ./internal/core
//
// With no arguments it lints everything. Findings print as
// file:line: [analyzer] message, and the exit status is non-zero when any
// finding survives its escape directives — CI gates on it.
package main

import (
	"flag"
	"fmt"
	"os"

	"arbd/internal/lint"
)

func main() {
	root := flag.String("root", ".", "module root to lint (directory containing go.mod)")
	flag.Parse()

	findings, err := lint.Run(*root, flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "arbd-lint: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f.String())
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "arbd-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
