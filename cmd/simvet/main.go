// Simvet runs the simulator-invariant analyzers
// (internal/analysis/simvet) over Go source directories: nondeterm
// (wall-clock and math/rand in simulator packages), maporder
// (order-sensitive work inside range-over-map loops), hotalloc
// (allocation sources in //simvet:hotpath functions), and conserve
// (Result counter mutation outside //simvet:accounting helpers).
//
// Usage:
//
//	go run ./cmd/simvet ./...
//	go run ./cmd/simvet -json ./internal/rack
//
// Arguments are directories; a trailing /... recurses. With no
// arguments it checks ./... . Findings print as
// file:line:col: analyzer: category: message, followed by an indented
// "suggest:" line when the analyzer has a cheap suggested edit; -json
// emits one JSON object per finding instead. Exit status is 1 when
// findings exist, 2 on usage or parse errors.
//
// A `//simvet:ignore <why>` comment on the offending line or the line
// above suppresses a finding; ignores that suppress nothing are
// reported as stale. Test files are excluded: they assert on simulator
// state rather than implement it, and host-side timing is legitimate
// there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"

	"repro/internal/analysis/driver"
	"repro/internal/analysis/simvet"
)

// jsonFinding is the -json wire form of one diagnostic.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Category   string `json:"category"`
	Message    string `json:"message"`
	Suggestion string `json:"suggestion,omitempty"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON objects, one per line")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	dirs, err := driver.ExpandDirs(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simvet:", err)
		os.Exit(2)
	}

	fset := token.NewFileSet()
	enc := json.NewEncoder(os.Stdout)
	findings := 0
	for _, dir := range dirs {
		files, err := driver.ParseDir(fset, dir, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simvet:", err)
			os.Exit(2)
		}
		if len(files) == 0 {
			continue
		}
		pass := &simvet.Pass{
			Fset:  fset,
			Path:  filepath.ToSlash(dir),
			Files: files,
			Report: func(d simvet.Diagnostic) {
				pos := fset.Position(d.Pos)
				findings++
				if *jsonOut {
					enc.Encode(jsonFinding{
						File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Analyzer: d.Analyzer, Category: d.Category,
						Message: d.Message, Suggestion: d.Suggestion,
					})
					return
				}
				fmt.Printf("%s:%d:%d: %s: %s: %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Category, d.Message)
				if d.Suggestion != "" {
					fmt.Printf("\tsuggest: %s\n", d.Suggestion)
				}
			},
		}
		if err := simvet.Analyze(pass); err != nil {
			fmt.Fprintln(os.Stderr, "simvet:", err)
			os.Exit(2)
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "simvet: %d finding(s)\n", findings)
		os.Exit(1)
	}
}
