package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// LoadDir parses and type-checks one out-of-module directory of Go files
// (a lint fixture) under the given fake import path, resolving its
// imports against the loader's module cache and the stdlib. The package is
// not added to the cache, so a fixture may shadow a real module path.
func (ld *Loader) LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	sort.Strings(files)
	return ld.check(importPath, dir, files)
}
