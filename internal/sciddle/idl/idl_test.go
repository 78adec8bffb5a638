package idl

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

const sample = `
// The Opal remote interface.
service Opal {
    update(coords []float64) ()
    nbint(coords []float64) (evdw float64, ecoul float64, grad []float64, npairs int)
    hello() ()
    info(name string, raw []byte, ids []int64) (greeting string)
}
`

func TestParseSample(t *testing.T) {
	f, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Services) != 1 {
		t.Fatalf("services = %d", len(f.Services))
	}
	s := f.Services[0]
	if s.Name != "Opal" || len(s.Methods) != 4 {
		t.Fatalf("service = %+v", s)
	}
	nb := s.Methods[1]
	if nb.Name != "nbint" || len(nb.Args) != 1 || len(nb.Rets) != 4 {
		t.Fatalf("nbint = %+v", nb)
	}
	if nb.Rets[3].Name != "npairs" || nb.Rets[3].Type != "int" {
		t.Errorf("ret[3] = %+v", nb.Rets[3])
	}
	if len(s.Methods[2].Args) != 0 || len(s.Methods[2].Rets) != 0 {
		t.Errorf("hello should be void/void")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{"", "no service"},
		{"service A {", "unterminated"},
		{"}", "unmatched"},
		{"foo() ()", "outside service"},
		{"service A {\nservice B {\n}\n}", "nested"},
		{"service 2bad {\n}", "invalid service name"},
		{"service A {\n m(x badtype) ()\n}", "unsupported type"},
		{"service A {\n m(x) ()\n}", "expected 'name type'"},
		{"service A {\n m(x float64, x int) ()\n}", "duplicate parameter"},
		{"service A {\n m() ()\n m() ()\n}", "duplicate method"},
		{"service A {\n 3m() ()\n}", "invalid method name"},
		{"service A {\n m() () extra\n}", "trailing junk"},
		{"service A {\n m\n}", "expected '('"},
		{"service A {\n m(x float64\n}", "missing ')'"},
		{"service A\n}", "expected '{'"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q): expected error containing %q", c.src, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Parse(%q): error %q does not mention %q", c.src, err, c.frag)
		}
	}
}

func TestParseErrorHasLine(t *testing.T) {
	_, err := Parse("service A {\n\n m(x badtype) ()\n}")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 3 {
		t.Errorf("line = %d, want 3", pe.Line)
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := "// header\nservice A { // trailing comment\n// full line\n\n m() ()\n}\n"
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Services[0].Methods) != 1 {
		t.Fatalf("methods = %+v", f.Services[0].Methods)
	}
}

func TestGenerateCompilesShapes(t *testing.T) {
	f, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Generate(f, "opalrpc")
	if err != nil {
		t.Fatalf("generate: %v\n%s", err, out)
	}
	src := string(out)
	for _, want := range []string{
		"package opalrpc",
		"type OpalHandler interface",
		"Nbint(t pvm.Task, coords []float64) (evdw float64, ecoul float64, grad []float64, npairs int)",
		"func RegisterOpal(svc *sciddle.Service, h OpalHandler)",
		"type OpalClient struct",
		"type OpalNbintReply struct",
		"func (c *OpalClient) Nbint(i int, coords []float64) (OpalNbintReply, error)",
		"func (c *OpalClient) NbintPhaseInto(pack func(i int, args *pvm.Buffer), out []OpalNbintReply) error",
		"func (c *OpalClient) UpdatePhasePacked(pack func(i int, args *pvm.Buffer)) error",
		"func PackOpalNbintArgsInto(b *pvm.Buffer, coords []float64)",
		"func PackOpalHelloArgsInto(_ *pvm.Buffer) {}",
		"b.MustFloat64sReuse(&nbintCoords)",
		"rep := nbintRep.Reset()",
		"func (c *OpalClient) Hello(i int) error",
		"Info(t pvm.Task, name string, raw []byte, ids []int64) (greeting string)",
		"DO NOT EDIT",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated code missing %q", want)
		}
	}
}

// TestGeneratedClientSurface type-checks the generated file against the
// real pvm and sciddle packages and pins the client surface: per IDL method
// one synchronous call and one phase call, both returning an error, and
// nothing else.
func TestGeneratedClientSurface(t *testing.T) {
	f, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Generate(f, "opalrpc")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "opalrpc.go", out, 0)
	if err != nil {
		t.Fatal(err)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("opalrpc", fset, []*ast.File{file}, nil)
	if err != nil {
		t.Fatalf("generated code does not type-check: %v", err)
	}
	client := pkg.Scope().Lookup("OpalClient")
	if client == nil {
		t.Fatal("no OpalClient type generated")
	}
	got := map[string]bool{}
	ms := types.NewMethodSet(types.NewPointer(client.Type()))
	for i := 0; i < ms.Len(); i++ {
		fn := ms.At(i).Obj().(*types.Func)
		res := fn.Type().(*types.Signature).Results()
		if res.Len() == 0 || res.At(res.Len()-1).Type().String() != "error" {
			t.Errorf("client method %s does not return an error last", fn.Name())
		}
		got[fn.Name()] = true
	}
	want := []string{
		"Update", "UpdatePhasePacked", // void reply
		"Nbint", "NbintPhaseInto", // reply unpacked into caller slots
		"Hello", "HelloPhasePacked",
		"Info", "InfoPhaseInto",
	}
	if len(got) != 2*len(f.Services[0].Methods) {
		t.Errorf("client has %d methods %v, want exactly two per IDL method", len(got), got)
	}
	for _, name := range want {
		if !got[name] {
			t.Errorf("client lacks method %s", name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	f, _ := Parse(sample)
	a, err := Generate(f, "p")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(f, "p")
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("generation is not deterministic")
	}
}

func TestExport(t *testing.T) {
	if export("nbint") != "Nbint" || export("") != "" || export("X") != "X" {
		t.Error("export casing wrong")
	}
}

func TestIsIdent(t *testing.T) {
	good := []string{"a", "A1", "_x", "updAte"}
	bad := []string{"", "1a", "a-b", "a b"}
	for _, s := range good {
		if !isIdent(s) {
			t.Errorf("isIdent(%q) = false", s)
		}
	}
	for _, s := range bad {
		if isIdent(s) {
			t.Errorf("isIdent(%q) = true", s)
		}
	}
}

func TestMultipleServices(t *testing.T) {
	src := "service A {\n m() ()\n}\nservice B {\n n() (x int)\n}\n"
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Services) != 2 {
		t.Fatalf("services = %d", len(f.Services))
	}
	out, err := Generate(f, "two")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "type AHandler interface") ||
		!strings.Contains(string(out), "type BHandler interface") {
		t.Error("both services should be generated")
	}
}
