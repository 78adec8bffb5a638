package opalperf

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"testing"
)

// virtualTimePackages are the packages whose code runs while a simulation
// holds the execution token, and so decides virtual time and physics.
var virtualTimePackages = []string{
	"vm", "pvm", "sciddle", "md", "pairlist", "forcefield", "trace", "fault", "core", "hpm", "molecule",
}

// determinismAllowed are the sites exempt from the determinism guard, as
// "package/file.go:Func" (methods as Type.Method) or "package/file.go:*"
// for a whole file.
var determinismAllowed = map[string]string{
	"pvm/tcp.go:*":                      "the network fabric runs on wall-clock time and goroutines by design",
	"pvm/ahead.go:lane.finish":          "the run-ahead gate times a handler's host cost; the result decides only where it runs",
	"pvm/ahead.go:lane.runAhead":        "the run-ahead helper times the handler it runs, for the same gate",
	"pvm/ahead.go:helper.post":          "starts the session's run-ahead helper goroutine",
	"fault/kills.go:KillSchedule.Total": "a count over a map, independent of iteration order",
}

// TestVirtualTimeIsDeterministic is a static determinism guard over the
// non-test files of the virtual-time packages: no range over a map, no
// wall clock (time.Now, time.Since), no go statement and no unseeded
// math/rand, outside the allowed sites.  Any of them can make two runs of
// one spec differ, which a seed sweep catches only if it happens to.
func TestVirtualTimeIsDeterministic(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	used := map[string]bool{}
	var found []string
	for _, name := range virtualTimePackages {
		dir := filepath.Join("internal", name)
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, f := range bp.GoFiles {
			file, err := parser.ParseFile(fset, filepath.Join(dir, f), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, file)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check("opalperf/internal/"+name, fset, files, info); err != nil {
			t.Fatalf("%s does not type-check: %v", dir, err)
		}
		for _, file := range files {
			base := filepath.Base(fset.Position(file.Pos()).Filename)
			for _, v := range nondeterminism(file, info) {
				site := name + "/" + base + ":" + v.fn
				switch {
				case determinismAllowed[name+"/"+base+":*"] != "":
					used[name+"/"+base+":*"] = true
				case determinismAllowed[site] != "":
					used[site] = true
				default:
					found = append(found, fmt.Sprintf("%s: %s in %s", fset.Position(v.pos), v.what, v.fn))
				}
			}
		}
	}
	for _, f := range found {
		t.Error(f)
	}
	var stale []string
	for site := range determinismAllowed {
		if !used[site] {
			stale = append(stale, site)
		}
	}
	sort.Strings(stale)
	for _, site := range stale {
		t.Errorf("allowed site %s has nothing left to allow; drop it", site)
	}
}

// violation is one nondeterministic construct in function fn.
type violation struct {
	pos  token.Pos
	what string
	fn   string
}

// nondeterminism lists the guarded constructs of file, each with the
// top-level function or method it sits in.
func nondeterminism(file *ast.File, info *types.Info) []violation {
	var out []violation
	for _, decl := range file.Decls {
		fn := "package scope"
		if fd, ok := decl.(*ast.FuncDecl); ok {
			fn = fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				typ := fd.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if ix, ok := typ.(*ast.IndexExpr); ok {
					typ = ix.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					fn = id.Name + "." + fn
				}
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if tv, ok := info.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						out = append(out, violation{n.Pos(), "range over a map", fn})
					}
				}
			case *ast.GoStmt:
				out = append(out, violation{n.Pos(), "go statement", fn})
			case *ast.Ident:
				f, ok := info.Uses[n].(*types.Func)
				if !ok || f.Pkg() == nil || f.Type().(*types.Signature).Recv() != nil {
					return true
				}
				switch path := f.Pkg().Path(); {
				case path == "time" && (f.Name() == "Now" || f.Name() == "Since"):
					out = append(out, violation{n.Pos(), "wall clock time." + f.Name(), fn})
				case (path == "math/rand" || path == "math/rand/v2") && !seededRand[f.Name()]:
					out = append(out, violation{n.Pos(), "unseeded " + path + "." + f.Name(), fn})
				}
			}
			return true
		})
	}
	return out
}

// seededRand are the math/rand constructors of explicitly seeded sources.
var seededRand = map[string]bool{"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true}
