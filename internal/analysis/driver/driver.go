// Package driver holds what the analyzer commands (cmd/simvet,
// cmd/tqvet) share before any analysis starts: turning command-line
// directory patterns into a directory list, and parsing one directory's
// Go files.
package driver

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ExpandDirs resolves the argument patterns into a sorted,
// de-duplicated directory list; "dir/..." recurses, skipping hidden,
// underscore, testdata, and vendor directories.
func ExpandDirs(args []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, arg := range args {
		root, recurse := strings.CutSuffix(arg, "/...")
		if root == "" || root == "." {
			root = "."
		}
		info, err := os.Stat(root)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("%s is not a directory", root)
		}
		if !recurse {
			add(filepath.Clean(root))
			continue
		}
		err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			add(filepath.Clean(path))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// ParseDir parses every .go file directly inside dir (comments
// included — suppression markers live there); _test.go files only when
// tests is set.
func ParseDir(fset *token.FileSet, dir string, tests bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || (!tests && strings.HasSuffix(e.Name(), "_test.go")) {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}
