package gom_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Package layering, enforced from the import declarations of every
// non-test Go file under internal/. Names are package directories under
// internal/.
var (
	// layerLeaves import no other package of this module.
	layerLeaves = []string{"page", "oid", "faultpoint", "metrics", "trace", "health"}

	// layerOnly restricts a package to the listed module packages.
	layerOnly = map[string][]string{
		// The page store and WAL sit directly on the leaves, so the commit
		// pipeline cannot grow a dependency on the server (or anything
		// else) above it.
		"storage": {"faultpoint", "metrics", "oid", "page"},
	}

	// layerForbidden lists imports that would point up the stack.
	layerForbidden = map[string][]string{
		"server": {"core"},
		"buffer": {"server"},
	}

	// layerExceptions are known violations, each with the reason it still
	// stands. A stale entry fails the test so that the list only shrinks.
	layerExceptions = map[string]string{
		"buffer -> server": "the client buffer pool uses the server.Server interface; ROADMAP item 4 moves it to a leaf package",
	}
)

// internalImports returns the module-internal packages (as directory
// names under internal/) imported by the non-test files of internal/pkg.
func internalImports(t *testing.T, pkg string) map[string]bool {
	t.Helper()
	dir := filepath.Join("internal", pkg)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	fset := token.NewFileSet()
	out := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatalf("%s: import %s: %v", name, imp.Path.Value, err)
			}
			if rest, ok := strings.CutPrefix(path, "gom/internal/"); ok {
				out[rest] = true
			}
		}
	}
	return out
}

// TestPackageLayering fails when a package imports across the layering
// above, unless the edge is a listed exception.
func TestPackageLayering(t *testing.T) {
	imports := map[string]map[string]bool{}
	importsOf := func(pkg string) map[string]bool {
		if imports[pkg] == nil {
			imports[pkg] = internalImports(t, pkg)
		}
		return imports[pkg]
	}
	used := map[string]bool{}
	violation := func(from, to, rule string) {
		edge := from + " -> " + to
		if _, ok := layerExceptions[edge]; ok {
			used[edge] = true
			return
		}
		t.Errorf("%s: %s", edge, rule)
	}

	for _, pkg := range layerLeaves {
		for _, imp := range sorted(importsOf(pkg)) {
			violation(pkg, imp, "a leaf package imports no other package of the module")
		}
	}
	for pkg, allowed := range layerOnly {
		for _, imp := range sorted(importsOf(pkg)) {
			if !slices.Contains(allowed, imp) {
				violation(pkg, imp, "only "+strings.Join(allowed, ", ")+" may be imported")
			}
		}
	}
	for pkg, banned := range layerForbidden {
		for _, imp := range banned {
			if importsOf(pkg)[imp] {
				violation(pkg, imp, "imports point down the stack, never up")
			}
		}
	}
	for edge := range layerExceptions {
		if !used[edge] {
			t.Errorf("exception %q no longer needed: delete it from layerExceptions", edge)
		}
	}
}

func sorted(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
