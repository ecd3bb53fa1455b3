package vgprs_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
