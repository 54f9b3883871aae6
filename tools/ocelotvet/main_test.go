package main

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ocelot/tools/ocelotvet/internal/analysis"
	"ocelot/tools/ocelotvet/internal/load"
)

// TestRepoClean asserts the whole module passes every analyzer — the
// invariant gate itself. Removing any decoder allocation cap, pool
// release, or context plumbing this suite guards turns this test (and CI)
// red.
func TestRepoClean(t *testing.T) {
	moduleDir, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	paths, dirs, err := load.List(moduleDir, "./...")
	if err != nil {
		t.Fatalf("listing module packages: %v", err)
	}
	loader := load.NewLoader()
	for i, path := range paths {
		var run []*analysis.Analyzer
		for _, a := range Analyzers {
			if targets, scoped := Targets[a.Name]; scoped && !targets[path] {
				continue
			}
			run = append(run, a)
		}
		if len(run) == 0 {
			continue
		}
		pkg, err := loader.Dir(dirs[i], path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		for _, a := range run {
			diags, err := analysis.Run(a, loader.Fset, pkg.Files, pkg.Types, pkg.Info)
			if err != nil {
				t.Fatalf("%s on %s: %v", a.Name, path, err)
			}
			for _, d := range diags {
				t.Errorf("%s: %s [%s]", loader.Fset.Position(d.Pos), d.Message, a.Name)
			}
		}
	}
}

// testOnlyPackages are the module packages only _test.go files may
// import: the byte-compatibility oracles the shipping codecs are pinned
// against.
var testOnlyPackages = []string{"ocelot/internal/oracle"}

// TestTestOnlyPackages keeps the oracles out of the shipping build: no
// non-test Go file in the module imports a test-only package, whatever its
// build tags, and neither command nor the facade links one.
func TestTestOnlyPackages(t *testing.T) {
	moduleDir, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	_, dirs, err := load.List(moduleDir, "./...")
	if err != nil {
		t.Fatalf("listing module packages: %v", err)
	}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); slices.Contains(testOnlyPackages, path) {
					t.Errorf("%s: non-test file imports test-only %s", fset.Position(imp.Pos()), path)
				}
			}
		}
	}
	deps, _, err := load.List(moduleDir, "-deps", "./cmd/ocelot", "./cmd/ocelot-bench", ".")
	if err != nil {
		t.Fatalf("listing shipping dependencies: %v", err)
	}
	for _, dep := range deps {
		if slices.Contains(testOnlyPackages, dep) {
			t.Errorf("the shipping build links test-only %s", dep)
		}
	}
}

// TestAnalyzerMetadata keeps the suite's registration sane: unique names,
// docs present, and every Targets key naming a registered analyzer.
func TestAnalyzerMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Analyzers {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc, or run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for name := range Targets {
		if !seen[name] {
			t.Errorf("Targets names unknown analyzer %q", name)
		}
	}
}
