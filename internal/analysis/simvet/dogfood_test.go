package simvet_test

import (
	"go/token"
	"path/filepath"
	"testing"

	"repro/internal/analysis/driver"
	"repro/internal/analysis/simvet"
)

// TestDogfoodRepoClean runs the full simvet suite over every package
// of this module, mirroring the CI `go run ./cmd/simvet ./...` gate:
// the repo's own sources must produce zero unsuppressed findings, so
// cleanliness is enforced by `go test` too, not only by CI wiring.
func TestDogfoodRepoClean(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	dirs, err := driver.ExpandDirs([]string{root + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, dir := range dirs {
		fset := token.NewFileSet()
		files, err := driver.ParseDir(fset, dir, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			continue
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			t.Fatal(err)
		}
		pass := &simvet.Pass{
			Fset:  fset,
			Path:  filepath.ToSlash(rel),
			Files: files,
			Report: func(d simvet.Diagnostic) {
				p := fset.Position(d.Pos)
				t.Errorf("%s:%d: %s: %s: %s", p.Filename, p.Line, d.Analyzer, d.Category, d.Message)
			},
		}
		checked++
		if err := simvet.Analyze(pass); err != nil {
			t.Fatal(err)
		}
	}
	if checked < 10 {
		t.Fatalf("dogfood only reached %d packages; walk is broken", checked)
	}
}
