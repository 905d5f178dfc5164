package rshuffle_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiAllowlist names the exported functions and methods under internal/ that
// may stay without a production caller, each with the reason it stays.
var apiAllowlist = map[string]string{
	"sim.Mutex.Waiters":                "feeds the mutex state of ROADMAP item 2a",
	"dag.Graph.Stages":                 "ROADMAP item 13 keeps it as the plan's stage view",
	"telemetry.Histogram.Observe":      "the registry histograms feed ROADMAP item 2b",
	"telemetry.Histogram.Sum":          "the registry histograms feed ROADMAP item 2b",
	"telemetry.Histogram.BucketCounts": "the registry histograms feed ROADMAP item 2b",
	"telemetry.Histogram.Bounds":       "the registry histograms feed ROADMAP item 2b",
	"telemetry.Registry.Histogram":     "the registry histograms feed ROADMAP item 2b",
	"telemetry.WriteReport":            "the registry's plain-text rendering, which the same-seed determinism tests compare byte for byte (telemetry, dag)",
	"bufpool.Stats":                    "the pool's hit, miss and retained counts, which the macro benchmarks report; they depend on what else ran in the process, so no reproducible result reads them",
	"sim.Simulation.Events":            "events fired per run, the events/sec of the kernel benchmarks (ROADMAP item 3)",
	"sim.Simulation.Switches":          "Proc handoffs per run, the switches/op of ROADMAP item 3",
	"sim.Simulation.Dispatches":        "events fired per run, the dispatch count beside item 3's switches/op",
	"sim.Group.Switches":               "a cluster's Proc handoffs, the switches/op of ROADMAP item 3",
	"sim.Group.Dispatches":             "a cluster's Proc wake-ups, beside item 3's switches/op",
}

// stdMethods are the method names a standard-library interface calls from
// inside the standard library (fmt, errors, sort), so a method of that name
// is reached without any file of the module calling it.
var stdMethods = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true,
}

// TestNoTestOnlyAPI fails when an exported function or method declared in a
// non-test file under internal/ is used by no non-test file of the module
// (cmd/, examples/, the root package and internal/) nor of bench/. A name
// only tests reach is a second path or a knob the program never turns; it
// goes, or moves into a _test.go file, or earns an allowlist entry here.
//
// Uses are resolved by the type checker, not by name: a function counts as
// used when a non-test file refers to it, a method when a non-test file
// calls it (or takes its method value), or calls an interface method the
// method's type implements. The module's packages are checked from source,
// the standard library through go/importer's source importer.
func TestNoTestOnlyAPI(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> non-test files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// The bench/ module is rshuffle/bench, so one prefix names both.
		ip := "rshuffle"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			ip += "/" + dir
		}
		files[ip] = append(files[ip], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	imp := &moduleImporter{
		fset: fset, files: files,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{},
		used: map[*types.Func]bool{},
	}
	var paths []string
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := imp.Import(p); err != nil {
			t.Fatal(err)
		}
	}

	// Interface methods called anywhere; a concrete method that implements
	// one of them is reached through the interface.
	var ifaceCalls []*types.Func
	for fn := range imp.used {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceCalls = append(ifaceCalls, fn)
		}
	}
	viaInterface := func(fn *types.Func, recv *types.Named) bool {
		if recv.TypeParams().Len() > 0 {
			return false // Implements is unspecified for uninstantiated types
		}
		for _, im := range ifaceCalls {
			if im.Name() != fn.Name() {
				continue
			}
			iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				return true
			}
		}
		return false
	}

	var unused []string
	for _, p := range paths {
		pkg := imp.pkgs[p]
		if !strings.HasPrefix(p, "rshuffle/internal/") || strings.HasSuffix(pkg.Name(), "test") {
			continue // outside internal/, or a helper package for tests
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if fn, ok := obj.(*types.Func); ok && fn.Exported() && !imp.used[fn] {
				unused = append(unused, apiKey(fset, fn, ""))
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				fn := named.Method(i)
				if !fn.Exported() || stdMethods[fn.Name()] || imp.used[fn] || viaInterface(fn, named) {
					continue
				}
				unused = append(unused, apiKey(fset, fn, tn.Name()))
			}
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		if _, ok := apiAllowlist[key[:strings.IndexByte(key, ' ')]]; !ok {
			t.Errorf("exported but used only by tests: %s", key)
		}
	}
}

// apiKey renders a declaration as "pkg.Func (file:line)" or
// "pkg.Type.Method (file:line)".
func apiKey(fset *token.FileSet, fn *types.Func, recv string) string {
	name := fn.Pkg().Name() + "."
	if recv != "" {
		name += recv + "."
	}
	return name + fn.Name() + " (" + fset.Position(fn.Pos()).String() + ")"
}

// moduleImporter type-checks the module's packages from the parsed files,
// on demand and once each, and records every function and method their
// files use. Everything else comes from the standard library.
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	std   types.Importer
	pkgs  map[string]*types.Package
	used  map[*types.Func]bool
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	fs, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, fs, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			m.used[fn.Origin()] = true
		}
	}
	m.pkgs[path] = pkg
	return pkg, nil
}
