package vgprs_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDesignModuleMap keeps DESIGN.md §3's module map honest: every Go
// package under internal/ has a row, and every row names a directory that
// exists.
func TestDesignModuleMap(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	start := strings.Index(text, "\n## 3. ")
	end := strings.Index(text, "\n## 4. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §3 module map")
	}
	rows := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllStringSubmatch(text[start:end], -1) {
		rows[m[1]] = true
	}
	if len(rows) == 0 {
		t.Fatal("module map has no rows")
	}
	for dir := range rows {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			t.Errorf("module map row %s names no directory", dir)
		}
	}

	packages := map[string]bool{}
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			packages[filepath.ToSlash(filepath.Dir(path))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg := range packages {
		if !rows[pkg] {
			t.Errorf("package %s has no row in DESIGN.md's module map", pkg)
		}
	}
}

// TestSyncOnlyInSharedState keeps the nodes lock-free: one goroutine drives
// each world and worlds share no mutable state (the sim package doc,
// DESIGN.md §7), so a node has nothing to lock. The non-test Go under
// internal/ may import sync or sync/atomic only in the files holding state
// that concurrent worlds do share: wire's writer pool, netsim's size
// scratch pool and the experiment sweep runner.
func TestSyncOnlyInSharedState(t *testing.T) {
	allowed := map[string]bool{
		"internal/wire/wire.go":         true,
		"internal/netsim/codecs.go":     true,
		"internal/experiments/sweep.go": true,
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if (p == "sync" || strings.HasPrefix(p, "sync/")) && !allowed[filepath.ToSlash(path)] {
				t.Errorf("%s imports %s: a node is driven by one goroutine and needs no lock", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
