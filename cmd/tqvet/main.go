// Tqvet runs the tqvet analyzer (internal/analysis/tqvet) over Go
// source directories: it flags tqrt task bodies that can overrun their
// quantum (loops with probe-free iteration paths), block their worker
// (channel ops, selects without default, sleeps, lock/wait calls), or
// carry unreachable probes.
//
// Usage:
//
//	go run ./cmd/tqvet ./examples/... ./cmd/...
//
// Arguments are directories; a trailing /... recurses. With no
// arguments it checks ./... . Findings print as
// file:line:col: category: message and make the exit status 1; a
// `//tqvet:ignore <why>` comment on the offending line or the line
// above suppresses a finding.
package main

import (
	"fmt"
	"go/token"
	"os"

	"repro/internal/analysis/driver"
	"repro/internal/analysis/tqvet"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"./..."}
	}
	dirs, err := driver.ExpandDirs(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tqvet:", err)
		os.Exit(2)
	}

	fset := token.NewFileSet()
	findings := 0
	for _, dir := range dirs {
		files, err := driver.ParseDir(fset, dir, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tqvet:", err)
			os.Exit(2)
		}
		if len(files) == 0 {
			continue
		}
		pass := &tqvet.Pass{
			Fset:  fset,
			Files: files,
			Report: func(d tqvet.Diagnostic) {
				pos := fset.Position(d.Pos)
				fmt.Printf("%s:%d:%d: %s: %s\n", pos.Filename, pos.Line, pos.Column, d.Category, d.Message)
				findings++
			},
		}
		if err := tqvet.Checker.Run(pass); err != nil {
			fmt.Fprintln(os.Stderr, "tqvet:", err)
			os.Exit(2)
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "tqvet: %d finding(s)\n", findings)
		os.Exit(1)
	}
}
