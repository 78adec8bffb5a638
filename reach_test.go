package opalperf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllowed are the declarations the reachability gate lets stand
// although no root reaches them, keyed as the gate names them
// ("vm.ConstRate", "pvm.SimVM.Task"; the package is its directory with
// "internal/" dropped).  One reason is accepted, a test seam that another
// package's tests need, and its text starts with "seam:".  A result that
// prose cites is reached through a figures key's out/ file instead.
var reachAllowed = map[string]string{
	"archive.Archive.SetClock":        "seam: cmd/opaltop's archive-replay golden pins the clock stamping records",
	"expdesign.Analysis.EffectByName": "seam: the effect-analysis tests look single factors up by name",
	"fault.Dialer":                    "seam: pvm's TCP chaos tests dial through it (NetConfig, WrapConn and Conn come with it)",
	"md/opalrpc.OpalClient.Nbint":     "seam: md's TestStubsInSync needs the generator's output, a synchronous call per IDL method",
	"memhier.Model.Validate":          "seam: platform's tests validate every platform's memory hierarchy",
	"pvm.Buffer.MustBytes":            "seam: sciddle/idl's TestGeneratedClientSurface type-checks []byte arguments against pvm",
	"pvm.Buffer.MustString":           "seam: sciddle/idl's TestGeneratedClientSurface type-checks string arguments against pvm",
	"pvm.Buffer.PackBytes":            "seam: sciddle/idl's TestGeneratedClientSurface type-checks []byte arguments against pvm",
	"pvm.SimVM.AheadRuns":             "seam: md's run-ahead tests fail as vacuous when no handler ran ahead",
	"pvm.SimVM.Task":                  "seam: md's run-ahead sweep reads every process's hpm counters",
	"trace.ComputeBreakdown":          "seam: the trace and pvm tests aggregate a whole recorded run",
	"vm.ConstRate":                    "seam: the vm and trace tests' unit-rate compute model",
	"vm.Kernel.MaxTime":               "seam: the pvm, md, sciddle and trace tests read a run's makespan",
}

// TestEveryDeclarationReached is the unused-code gate: every top-level
// declaration and method of the module's non-test files must be reached
// from a root, or be in reachAllowed; an entry of reachAllowed that is
// reached or no longer exists fails too.  Roots are every main and init,
// every package-level var and every declaration of the module root
// package, its test files included (the paper's evaluation and the
// end-to-end smokes).  See reachGraph for the edges.
func TestEveryDeclarationReached(t *testing.T) {
	pkgs, err := listModule(".")
	if err != nil {
		t.Fatal(err)
	}
	m, err := checkModule(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range m.gate(reachAllowed) {
		t.Error(e)
	}
}

// TestReachGate runs the gate over small in-memory modules: a root package
// "m" whose main calls into package "m/a".
func TestReachGate(t *testing.T) {
	for _, c := range []struct {
		name    string
		root, a string
		allowed map[string]string
		want    []string
	}{{
		name: "orphan function is found",
		root: "func main() { a.Used() }",
		a:    "func Used() {}\nfunc Orphan() {}",
		want: []string{"a/a.go:4 a.Orphan is reached from no root; delete it"},
	}, {
		name: "method reached only through an interface is kept",
		root: "func main() { a.New().M() }",
		a:    "type I interface{ M() }\ntype T struct{}\nfunc New() I { return T{} }\nfunc (T) M() {}\nfunc (T) unused() {}",
		want: []string{"a/a.go:7 a.T.unused is reached from no root; delete it"},
	}, {
		name: "method of an unreached type is not kept by its interface",
		root: "func main() { var i a.I; i.M() }",
		a:    "type I interface{ M() }\ntype T struct{}\nfunc (T) M() {}",
		want: []string{
			"a/a.go:4 a.T is reached from no root; delete it",
			"a/a.go:5 a.T.M is reached from no root; delete it",
		},
	}, {
		name: "method satisfying only an unreached interface is not kept",
		root: "func main() { a.New() }",
		a:    "type I interface{ M() }\ntype T struct{}\nfunc New() T { return T{} }\nfunc (T) M() {}",
		want: []string{
			"a/a.go:3 a.I is reached from no root; delete it",
			"a/a.go:6 a.T.M is reached from no root; delete it",
		},
	}, {
		name: "iota block stays whole",
		root: "func main() { _ = a.B }",
		a:    "const (\n\tA = iota\n\tB\n\tC\n)\nconst D, E = 1, 2",
		want: []string{
			"a/a.go:8 a.D is reached from no root; delete it",
			"a/a.go:8 a.E is reached from no root; delete it",
		},
	}, {
		name:    "allowed declaration keeps what it names",
		root:    "func main() { a.Used() }",
		a:       "func Used() {}\nfunc Cited() int { return helper() }\nfunc helper() int { return 1 }",
		allowed: map[string]string{"a.Cited": "seam: a test elsewhere needs it"},
	}, {
		name:    "allowed entry that is not a test seam fails",
		root:    "func main() { a.Used() }",
		a:       "func Used() {}\nfunc Cited() int { return 1 }",
		allowed: map[string]string{"a.Cited": "cited: a number in prose"},
		want: []string{
			`allowed a.Cited: reason "cited: a number in prose" is not "seam: ..."; reach it from a root or delete it`,
			"a/a.go:4 a.Cited is reached from no root; delete it",
		},
	}, {
		name:    "stale allowlist entry fails",
		root:    "func main() { a.Used() }",
		a:       "func Used() {}",
		allowed: map[string]string{"a.Used": "seam: reached", "a.Gone": "seam: deleted"},
		want: []string{
			"allowed a.Gone no longer exists; drop it",
			"allowed a.Used is reached; drop it",
		},
	}} {
		t.Run(c.name, func(t *testing.T) {
			m, err := checkModule([]*srcPkg{
				{path: "m", root: true, main: true, files: []srcFile{{"main.go", "package main\n\nimport \"m/a\"\n\n" + c.root}}},
				{path: "m/a", key: "a", files: []srcFile{{"a/a.go", "package a\n\n" + c.a}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			got := m.gate(c.allowed)
			if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
				t.Errorf("gate:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(c.want, "\n"))
			}
		})
	}
}

// srcPkg is one package of the module to check.
type srcPkg struct {
	path  string    // import path
	key   string    // the gate's name for it: module-relative, "internal/" dropped
	root  bool      // the module root package: every declaration is a root
	main  bool      // package main
	files []srcFile // the root package's test files included
}

// srcFile is one Go file: its name as reported, and its source (nil reads
// the file).
type srcFile struct {
	name string
	src  any
}

// listModule describes the module in dir through `go list -json ./...`.
func listModule(dir string) ([]*srcPkg, error) {
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	var pkgs []*srcPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p struct {
			ImportPath, Name, Dir string
			GoFiles, TestGoFiles  []string
			Module                struct{ Path, Dir string }
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(p.Module.Dir, p.Dir)
		if err != nil {
			return nil, err
		}
		sp := &srcPkg{
			path: p.ImportPath,
			key:  strings.TrimPrefix(filepath.ToSlash(rel), "internal/"),
			root: p.ImportPath == p.Module.Path,
			main: p.Name == "main",
		}
		names := p.GoFiles
		if sp.root {
			names = append(names, p.TestGoFiles...)
		}
		for _, n := range names {
			sp.files = append(sp.files, srcFile{name: filepath.Join(rel, n)})
		}
		pkgs = append(pkgs, sp)
	}
	return pkgs, nil
}

// reachModule is the module type-checked from source.
type reachModule struct {
	fset *token.FileSet
	pkgs []*checkedPkg
	// std are the standard-library packages the module imports.
	std []*types.Package
}

type checkedPkg struct {
	*srcPkg
	asts  []*ast.File
	types *types.Package
	info  *types.Info
}

// checkModule parses and type-checks every package, the module's own
// imports resolved to the packages checked here and the standard library
// to its export data, located in one `go list -export` call.
func checkModule(pkgs []*srcPkg) (*reachModule, error) {
	m := &reachModule{fset: token.NewFileSet()}
	byPath := map[string]*checkedPkg{}
	stdPaths := map[string]bool{}
	for _, sp := range pkgs {
		cp := &checkedPkg{srcPkg: sp}
		for _, f := range sp.files {
			file, err := parser.ParseFile(m.fset, f.name, f.src, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			cp.asts = append(cp.asts, file)
			for _, imp := range file.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				stdPaths[path] = true
			}
		}
		byPath[sp.path] = cp
		m.pkgs = append(m.pkgs, cp)
	}
	for _, cp := range m.pkgs {
		delete(stdPaths, cp.path)
	}
	exports, err := stdExports(stdPaths)
	if err != nil {
		return nil, err
	}
	std := importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	imp := &moduleImporter{m: m, byPath: byPath, std: std}
	for _, cp := range m.pkgs {
		if _, err := imp.check(cp); err != nil {
			return nil, err
		}
	}
	for path := range stdPaths {
		p, err := std.Import(path)
		if err != nil {
			return nil, err
		}
		m.std = append(m.std, p)
	}
	return m, nil
}

// stdExports maps each of paths, and nothing else, to its export data file.
func stdExports(paths map[string]bool) (map[string]string, error) {
	exports := map[string]string{}
	if len(paths) == 0 {
		return exports, nil
	}
	args := []string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for p := range paths {
		args = append(args, p)
	}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "\t")
		exports[path] = file
	}
	return exports, nil
}

// moduleImporter checks module packages on first import.
type moduleImporter struct {
	m      *reachModule
	byPath map[string]*checkedPkg
	std    types.Importer
}

func (imp *moduleImporter) Import(path string) (*types.Package, error) {
	if cp, ok := imp.byPath[path]; ok {
		return imp.check(cp)
	}
	return imp.std.Import(path)
}

func (imp *moduleImporter) check(cp *checkedPkg) (*types.Package, error) {
	if cp.types != nil {
		return cp.types, nil
	}
	cp.info = &types.Info{
		Types:     map[ast.Expr]types.TypeAndValue{},
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: imp}
	p, err := conf.Check(cp.path, imp.m.fset, cp.asts, cp.info)
	if err != nil {
		return nil, fmt.Errorf("%s does not type-check: %v", cp.path, err)
	}
	cp.types = p
	return p, nil
}

// declared is one declaration the gate tracks: a package-level const,
// type or func, or a method.
type declared struct {
	obj   types.Object
	info  *types.Info
	name  string      // "trace.Recorder.Segment"
	node  ast.Node    // walked for edges once it is reached
	group []*declared // the constants of its iota block, itself included
}

// stdDynamic are the unnamed interfaces the errors package asserts at run
// time (errors.Is, As, Unwrap): a method that satisfies one of them is
// called although no source names it.
const stdDynamic = `package stddynamic

type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)
`

// reachGraph is the module's declarations and what reaches them.
//
// Edges: a reached declaration reaches every package-level object and
// method it names.  A method is reached only when a reached declaration
// names it, or when it implements a method of an interface and its
// receiver type is reached; the interfaces are the standard library's
// named ones, the module's reached named ones, every unnamed one the
// module writes, and stdDynamic.  The constants of an iota block are
// reached together.
type reachGraph struct {
	all      map[string]*declared
	byObj    map[types.Object]*declared
	reached  map[*declared]bool
	work     []*declared
	ifaces   []*types.Interface
	named    map[*types.Interface]*declared // the module's named interfaces
	concrete []*types.Named                 // the module's named types, generic ones by instance
}

// graph builds the module's reachGraph and reaches everything its roots
// reach.
func (m *reachModule) graph() (*reachGraph, error) {
	g := &reachGraph{
		all:     map[string]*declared{},
		byObj:   map[types.Object]*declared{},
		reached: map[*declared]bool{},
		named:   map[*types.Interface]*declared{},
	}
	type root struct {
		node ast.Node
		info *types.Info
	}
	var roots []root
	track := func(cp *checkedPkg, id *ast.Ident, name string, node ast.Node) *declared {
		d := &declared{obj: cp.info.Defs[id], info: cp.info, name: cp.key + "." + name, node: node}
		g.byObj[d.obj] = d
		g.all[d.name] = d
		return d
	}
	for _, cp := range m.pkgs {
		for _, file := range cp.asts {
			for _, decl := range file.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					name := decl.Name.Name
					if cp.root || decl.Recv == nil && (name == "init" || cp.main && name == "main") {
						roots = append(roots, root{decl, cp.info})
						continue
					}
					if recv := recvName(decl); recv != "" {
						name = recv + "." + name
					}
					track(cp, decl.Name, name, decl)
				case *ast.GenDecl:
					if decl.Tok == token.IMPORT || decl.Tok == token.VAR || cp.root {
						roots = append(roots, root{decl, cp.info})
						continue
					}
					var group []*declared
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							d := track(cp, spec.Name, spec.Name.Name, spec)
							if it, ok := d.obj.Type().Underlying().(*types.Interface); ok {
								g.named[it] = d
							}
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								if id.Name == "_" {
									roots = append(roots, root{spec, cp.info})
								} else {
									group = append(group, track(cp, id, id.Name, spec))
								}
							}
						}
					}
					if decl.Tok == token.CONST && usesIota(decl, cp.info) {
						for _, d := range group {
							d.group = group
						}
					}
				}
			}
		}
	}

	var err error
	if g.ifaces, err = m.interfaces(); err != nil {
		return nil, err
	}
	for _, cp := range m.pkgs {
		for _, tv := range cp.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				g.ifaces = append(g.ifaces, it)
			}
		}
		for _, inst := range cp.info.Instances {
			if n, ok := inst.Type.(*types.Named); ok && g.byObj[n.Origin().Obj()] != nil {
				g.concrete = append(g.concrete, n)
			}
		}
		for _, name := range cp.types.Scope().Names() {
			if tn, ok := cp.types.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil && !types.IsInterface(n) {
					g.concrete = append(g.concrete, n)
				}
			}
		}
	}

	for _, r := range roots {
		g.walk(r.node, r.info)
	}
	g.run()
	return g, nil
}

// reach marks the declaration of o reached, if the graph tracks it.
func (g *reachGraph) reach(o types.Object) {
	if f, ok := o.(*types.Func); ok {
		o = f.Origin()
	}
	if d := g.byObj[o]; d != nil {
		g.reachDecl(d)
	}
}

func (g *reachGraph) reachDecl(d *declared) {
	for _, d := range append([]*declared{d}, d.group...) {
		if !g.reached[d] {
			g.reached[d] = true
			g.work = append(g.work, d)
		}
	}
}

// walk reaches every object node names.
func (g *reachGraph) walk(node ast.Node, info *types.Info) {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			g.reach(info.Uses[id])
		}
		return true
	})
}

// run walks reached declarations, and the methods that reached types
// implement interfaces with, until nothing new is reached.
func (g *reachGraph) run() {
	for len(g.work) > 0 {
		for len(g.work) > 0 {
			d := g.work[len(g.work)-1]
			g.work = g.work[:len(g.work)-1]
			g.walk(d.node, d.info)
		}
		for _, n := range g.concrete {
			if !g.reached[g.byObj[n.Origin().Obj()]] {
				continue
			}
			ptr := types.NewPointer(n)
			for _, it := range g.ifaces {
				if d := g.named[it]; d != nil && !g.reached[d] || !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					im := it.Method(i)
					if o, _, _ := types.LookupFieldOrMethod(ptr, true, im.Pkg(), im.Name()); o != nil {
						g.reach(o)
					}
				}
			}
		}
	}
}

// interfaces returns the named interfaces of every package the module
// imports or declares, the standard library's imports of imports
// included, of stdDynamic, and error.
func (m *reachModule) interfaces() ([]*types.Interface, error) {
	file, err := parser.ParseFile(m.fset, "stddynamic.go", stdDynamic, 0)
	if err != nil {
		return nil, err
	}
	dyn, err := new(types.Config).Check("stddynamic", m.fset, []*ast.File{file}, nil)
	if err != nil {
		return nil, err
	}
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var add func(p *types.Package)
	add = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, q := range p.Imports() {
			add(q)
		}
	}
	add(dyn)
	for _, p := range m.std {
		add(p)
	}
	for _, cp := range m.pkgs {
		add(cp.types)
	}
	return out, nil
}

// gate returns one error per declaration that no root reaches and allowed
// does not name, as "file:line name", and one per entry of allowed that a
// root reaches or that no longer exists, at the entry's line.  What an
// allowed declaration names is reached through it.
func (m *reachModule) gate(allowed map[string]string) []string {
	g, err := m.graph()
	if err != nil {
		return []string{err.Error()}
	}
	var errs []string
	for name, reason := range allowed {
		switch d := g.all[name]; {
		case !strings.HasPrefix(reason, "seam:"):
			errs = append(errs, fmt.Sprintf("%sallowed %s: reason %q is not \"seam: ...\"; reach it from a root or delete it",
				m.allowedAt(name), name, reason))
		case d == nil:
			errs = append(errs, fmt.Sprintf("%sallowed %s no longer exists; drop it", m.allowedAt(name), name))
		case g.reached[d]:
			errs = append(errs, fmt.Sprintf("%sallowed %s is reached; drop it", m.allowedAt(name), name))
		default:
			g.reachDecl(d)
		}
	}
	sort.Strings(errs)
	g.run()
	var found []*declared
	for _, d := range g.all {
		if !g.reached[d] {
			found = append(found, d)
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].obj.Pos() < found[j].obj.Pos() })
	for _, d := range found {
		pos := m.fset.Position(d.obj.Pos())
		errs = append(errs, fmt.Sprintf("%s:%d %s is reached from no root; delete it", pos.Filename, pos.Line, d.name))
	}
	return errs
}

// allowedAt is "file:line " of the first string literal in the root
// package that spells name, the allowlist entry; "" when there is none.
func (m *reachModule) allowedAt(name string) string {
	lit := strconv.Quote(name)
	for _, cp := range m.pkgs {
		for _, f := range cp.asts {
			var at string
			ast.Inspect(f, func(n ast.Node) bool {
				if b, ok := n.(*ast.BasicLit); ok && cp.root && b.Value == lit {
					pos := m.fset.Position(b.Pos())
					at = fmt.Sprintf("%s:%d ", pos.Filename, pos.Line)
				}
				return at == ""
			})
			if at != "" {
				return at
			}
		}
	}
	return ""
}

// recvName is the name of a method's receiver type, "" for a function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return ""
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch t := typ.(type) {
	case *ast.IndexExpr:
		typ = t.X
	case *ast.IndexListExpr:
		typ = t.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// usesIota reports whether a const block counts with iota.
func usesIota(decl *ast.GenDecl, info *types.Info) bool {
	found := false
	ast.Inspect(decl, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == types.Universe.Lookup("iota") {
			found = true
		}
		return !found
	})
	return found
}
