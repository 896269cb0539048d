package dstress

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// usedByTestsOnly names the exported functions and methods that only tests
// call, on purpose, each with the reason it stays exported. Keys are
// "<import path>.<Func>" or "<import path>.<Type>.<Method>".
var usedByTestsOnly = map[string]string{
	"dstress/internal/dram.Device.DischargeAllWord":       "test oracle: the plain per-word discharge the evaluation paths are checked against",
	"dstress/internal/dram.Device.AverageRuns":            "test oracle: per-genome evaluation, a batch of one, that the batch kernel is checked and benchmarked against",
	"dstress/internal/dram.MustNewDevice":                 "the dram tests' and benchmarks' device constructor; TestMustNewDevicePanics pins its panic",
	"dstress/internal/dram.Device.ClusterFireWord":        "test oracle: the word that fires a row's weak clusters",
	"dstress/internal/dram.Device.Clusters":               "read-only view of the sampled defect map that server tests compare across clones",
	"dstress/internal/dram.Device.WeakCells":              "read-only view of the sampled defect map that server and predict tests compare across clones and aging",
	"dstress/internal/bitvec.MustParse":                   "cross-package test helper: bit-vector literals",
	"dstress/internal/bitvec.Vec.Equal":                   "cross-package test helper: compares decoded chromosomes",
	"dstress/internal/addrmap.Geometry.ChunkAddr":         "cross-package test helper: memctl, core and virus tests address chunks with it",
	"dstress/internal/memctl.DefaultConfig":               "cross-package test helper: virus and workload tests build a controller with it",
	"dstress/internal/memctl.Controller.DRAMTraffic":      "counter readout that the access-deploy digest and the reference model compare",
	"dstress/internal/memctl.Controller.ElapsedNs":        "counter readout that the access-deploy digest and the reference model compare",
	"dstress/internal/memctl.Controller.ReadWordUncached": "the uncached read the reference model and the server clone tests drive",
	"dstress/internal/minicc.Machine.Lookup":              "cross-package test helper: virus tests read a program's variables",
	"dstress/internal/minicc.Machine.Stopped":             "cross-package test helper: virus tests check a fill ran to its end",
	"dstress/internal/thermal.Testbed.SetTarget":          "cross-package test helper: server tests set one channel's set-point",
	"dstress/internal/vpl.Analyzed.AllBinary":             "the template summary the package example prints",
	"dstress/internal/vpl.Analyzed.GenomeLength":          "the template summary the package example prints",
	"dstress/internal/farm.Scheduler.SetRetention":        "test substitution: a small retention cap makes eviction reachable",
	"dstress/internal/fleet.WithBackoff":                  "test substitution: a short retry ramp",
	"dstress/internal/fleet.WithLeaseWait":                "test substitution: a short lease long-poll",
}

// stdInterfaceMethods are methods the standard library calls through an
// interface (fmt, encoding/json, sort, io, errors, net/http), so no
// selector of this module names them.
var stdInterfaceMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

// TestNoExportWithoutCaller fails on an exported function or method of this
// module that no non-test file of the module, or of the benchmark harness in
// cmd/dstressbench (its own module, which imports this one), refers to. Such
// an export is API kept alive only by its own tests: delete it, unexport it,
// or list it in usedByTestsOnly with the reason it stays.
//
// The check is by name. A package-level function counts as used when an
// identifier of its own package, or a selector through an import of that
// package, names it. A method counts as used when any selector names a
// method of that name, or an interface of the module or of the standard
// library (stdInterfaceMethods) declares one.
func TestNoExportWithoutCaller(t *testing.T) {
	if testing.Short() {
		t.Skip("parses the whole module")
	}
	decls, used, err := scanExports(".", "dstress")
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, d := range decls {
		if !used[d] && usedByTestsOnly[d] == "" {
			dead = append(dead, d)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported %s has no caller outside tests", d)
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d] = true
	}
	for name := range usedByTestsOnly {
		switch {
		case !declared[name]:
			t.Errorf("usedByTestsOnly lists %s, which the module no longer declares", name)
		case used[name]:
			t.Errorf("usedByTestsOnly lists %s, which a non-test file now calls", name)
		}
	}
}

// scanExports parses every non-test Go file under root, whose module path
// is mod. It returns the exported functions and methods declared outside
// cmd/dstressbench, and the set of those that some non-test file refers to.
func scanExports(root, mod string) (decls []string, used map[string]bool, err error) {
	type file struct {
		pkg string // import path
		ast *ast.File
	}
	var files []file
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{path.Join(mod, filepath.ToSlash(filepath.Dir(p))), f})
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	harness := mod + "/cmd/dstressbench"
	used = map[string]bool{}
	methodUsed := map[string]bool{} // method names a selector or an interface names
	for m := range stdInterfaceMethods {
		methodUsed[m] = true
	}
	methodOf := map[string]string{} // method decl -> method name
	for _, f := range files {
		imports := map[string]string{} // local name -> import path
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			local := path.Base(p)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = p
		}
		declName := map[*ast.Ident]bool{}
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declName[fd.Name] = true
			if !fd.Name.IsExported() || strings.HasPrefix(f.pkg, harness) {
				continue
			}
			if fd.Recv == nil {
				decls = append(decls, f.pkg+"."+fd.Name.Name)
				continue
			}
			d := f.pkg + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
			decls = append(decls, d)
			methodOf[d] = fd.Name.Name
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						used[p+"."+n.Sel.Name] = true
						return false
					}
				}
				methodUsed[n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						methodUsed[name.Name] = true
					}
				}
			case *ast.Ident:
				if !declName[n] {
					used[f.pkg+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}
	for d, name := range methodOf {
		if methodUsed[name] {
			used[d] = true
		}
	}
	return decls, used, nil
}

// recvType is the name of a method receiver's type, without pointer or
// type parameters.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
