package rshuffle_test

import (
	"go/ast"
	"go/parser"
	"go/token"
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
	"telemetry.WriteReport":            "the registry fingerprint of the cluster and dag PDES equivalence tests",
	"bufpool.Stats":                    "the pool's hit, miss and retained counts, which the macro benchmarks report; they depend on what else ran in the process, so no reproducible result reads them",
	"verbs.ReconnectRCPair":            "the connection-manager loop of the transient fault tier (README, EXPERIMENTS.md); recovery restarts the query instead, and ROADMAP item 13 leaves wiring it in or deleting it open",
}

// stdMethods are the method names a standard interface calls, so a method
// of that name is reached without anyone naming it.
var stdMethods = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true,
}

type apiFile struct {
	dir  string // package directory, slash-separated, relative to the root
	file *ast.File
}

// TestNoTestOnlyAPI fails when an exported function or method declared in a
// non-test file under internal/ is named by no non-test file of the module
// (cmd/, examples/, the root package and internal/) nor of bench/. A name
// only tests reach is a second path or a knob the program never turns; it
// goes, or moves into a _test.go file, or earns an allowlist entry here.
//
// Functions count as named when their package calls them by bare name or
// another file selects them through an import of that package. Methods count
// as named when any non-test file mentions the name: a selector, an
// interface method or a method value. That is approximate: a method sharing
// its name with a live one is not caught.
func TestNoTestOnlyAPI(t *testing.T) {
	fset := token.NewFileSet()
	var files []apiFile
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
		files = append(files, apiFile{dir: filepath.ToSlash(filepath.Dir(path)), file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	type decl struct {
		key   string     // "pkg.Func" or "pkg.Type.Method"
		dir   string     // declaring package directory
		ident *ast.Ident // the declaration's own name
		recv  bool
	}
	var decls []decl
	for _, af := range files {
		if !strings.HasPrefix(af.dir, "internal/") || strings.HasSuffix(af.file.Name.Name, "test") {
			continue
		}
		pkg := af.file.Name.Name
		for _, d := range af.file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			if fd.Recv == nil {
				decls = append(decls, decl{key: pkg + "." + fd.Name.Name, dir: af.dir, ident: fd.Name})
				continue
			}
			if stdMethods[fd.Name.Name] {
				continue
			}
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if idx, ok := recv.(*ast.IndexExpr); ok {
				recv = idx.X
			}
			rid, ok := recv.(*ast.Ident)
			if !ok || !rid.IsExported() {
				continue
			}
			decls = append(decls, decl{key: pkg + "." + rid.Name + "." + fd.Name.Name, dir: af.dir, ident: fd.Name, recv: true})
		}
	}

	// Every mention of a name in a non-test file: bare identifiers per
	// package directory, qualified selectors per import path, and any
	// identifier at all for the method check.
	bare := map[string]map[string]int{}      // dir -> name -> count
	qualified := map[string]map[string]int{} // import path -> name -> count
	anywhere := map[string]int{}
	for _, af := range files {
		imports := map[string]string{} // local name -> import path
		for _, im := range af.file.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			local := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = p
		}
		if bare[af.dir] == nil {
			bare[af.dir] = map[string]int{}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				anywhere[n.Sel.Name]++
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						if qualified[p] == nil {
							qualified[p] = map[string]int{}
						}
						qualified[p][n.Sel.Name]++
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				bare[af.dir][n.Name]++
				anywhere[n.Name]++
			}
			return true
		}
		ast.Inspect(af.file, visit)
	}

	var unused []string
	for _, d := range decls {
		// The declaration's own name is one of the identifiers counted.
		name := d.ident.Name
		if d.recv {
			if anywhere[name] > 1 {
				continue
			}
		} else if bare[d.dir][name] > 1 || qualified["rshuffle/"+d.dir][name] > 0 {
			continue
		}
		if _, ok := apiAllowlist[d.key]; ok {
			continue
		}
		unused = append(unused, d.key+" ("+fset.Position(d.ident.Pos()).String()+")")
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but named only by tests: %s", u)
	}
}
