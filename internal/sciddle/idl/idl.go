// Package idl implements the Sciddle interface-description language and
// its stub compiler.  The original Sciddle shipped a stub generator that
// read a remote interface specification and emitted the client and server
// communication stubs translating RPCs into PVM message passing (Section 3
// of the paper); this package does the same for Go: Parse reads a .idl
// file and Generate emits a Go source file with a typed server handler
// interface, a registration function and a typed client.
//
// Grammar (line comments with //):
//
//	service <Name> {
//	    <method>(<arg> <type>, ...) (<ret> <type>, ...)
//	}
//
// Supported types: float64, []float64, int, []int64, string, []byte.
package idl

import (
	"fmt"
	"go/format"
	"strings"
	"unicode"
)

// Param is one named argument or result.
type Param struct {
	Name string
	Type string
}

// Method is one remote procedure.
type Method struct {
	Name string
	Args []Param
	Rets []Param
}

// Service is one remote interface.
type Service struct {
	Name    string
	Methods []Method
}

// File is a parsed IDL file.
type File struct {
	Services []Service
}

var validTypes = map[string]bool{
	"float64": true, "[]float64": true,
	"int": true, "[]int64": true,
	"string": true, "[]byte": true,
}

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string { return fmt.Sprintf("idl: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Parse reads an IDL source text.
func Parse(src string) (*File, error) {
	f := &File{}
	var cur *Service
	for ln, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		lineNo := ln + 1
		switch {
		case strings.HasPrefix(line, "service "):
			if cur != nil {
				return nil, errf(lineNo, "nested service declaration")
			}
			rest := strings.TrimSpace(strings.TrimPrefix(line, "service "))
			if !strings.HasSuffix(rest, "{") {
				return nil, errf(lineNo, "expected '{' after service name")
			}
			name := strings.TrimSpace(strings.TrimSuffix(rest, "{"))
			if !isIdent(name) {
				return nil, errf(lineNo, "invalid service name %q", name)
			}
			f.Services = append(f.Services, Service{Name: name})
			cur = &f.Services[len(f.Services)-1]
		case line == "}":
			if cur == nil {
				return nil, errf(lineNo, "unmatched '}'")
			}
			cur = nil
		default:
			if cur == nil {
				return nil, errf(lineNo, "method outside service: %q", line)
			}
			m, err := parseMethod(line, lineNo)
			if err != nil {
				return nil, err
			}
			for _, prev := range cur.Methods {
				if prev.Name == m.Name {
					return nil, errf(lineNo, "duplicate method %q", m.Name)
				}
			}
			cur.Methods = append(cur.Methods, m)
		}
	}
	if cur != nil {
		return nil, errf(0, "unterminated service %q", cur.Name)
	}
	if len(f.Services) == 0 {
		return nil, errf(0, "no service declared")
	}
	return f, nil
}

// parseMethod parses `name(args) (rets)`.
func parseMethod(line string, lineNo int) (Method, error) {
	open := strings.Index(line, "(")
	if open < 0 {
		return Method{}, errf(lineNo, "expected '(' in method declaration")
	}
	name := strings.TrimSpace(line[:open])
	if !isIdent(name) {
		return Method{}, errf(lineNo, "invalid method name %q", name)
	}
	rest := line[open:]
	args, rest, err := parseParamList(rest, lineNo)
	if err != nil {
		return Method{}, err
	}
	rest = strings.TrimSpace(rest)
	var rets []Param
	if rest != "" {
		rets, rest, err = parseParamList(rest, lineNo)
		if err != nil {
			return Method{}, err
		}
		if strings.TrimSpace(rest) != "" {
			return Method{}, errf(lineNo, "trailing junk %q", rest)
		}
	}
	return Method{Name: name, Args: args, Rets: rets}, nil
}

// parseParamList parses a parenthesized `name type, ...` list and returns
// the remainder of the line.
func parseParamList(s string, lineNo int) ([]Param, string, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "(") {
		return nil, "", errf(lineNo, "expected '('")
	}
	close := strings.Index(s, ")")
	if close < 0 {
		return nil, "", errf(lineNo, "missing ')'")
	}
	inner := strings.TrimSpace(s[1:close])
	rest := s[close+1:]
	if inner == "" {
		return nil, rest, nil
	}
	var out []Param
	seen := map[string]bool{}
	for _, part := range strings.Split(inner, ",") {
		fields := strings.Fields(strings.TrimSpace(part))
		if len(fields) != 2 {
			return nil, "", errf(lineNo, "expected 'name type', got %q", part)
		}
		name, typ := fields[0], fields[1]
		if !isIdent(name) {
			return nil, "", errf(lineNo, "invalid parameter name %q", name)
		}
		if !validTypes[typ] {
			return nil, "", errf(lineNo, "unsupported type %q", typ)
		}
		if seen[name] {
			return nil, "", errf(lineNo, "duplicate parameter %q", name)
		}
		seen[name] = true
		out = append(out, Param{Name: name, Type: typ})
	}
	return out, rest, nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if r == '_' || unicode.IsLetter(r) || (i > 0 && unicode.IsDigit(r)) {
			continue
		}
		return false
	}
	return true
}

// export capitalizes the first rune for Go exporting.
func export(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

func packCall(typ string) string {
	switch typ {
	case "float64":
		return "PackFloat64"
	case "[]float64":
		return "PackFloat64s"
	case "int":
		return "PackInt"
	case "[]int64":
		return "PackInt64s"
	case "string":
		return "PackString"
	case "[]byte":
		return "PackBytes"
	}
	panic("idl: unreachable type " + typ)
}

func mustCall(typ string) string {
	switch typ {
	case "float64":
		return "MustFloat64()"
	case "int":
		return "MustInt()"
	case "[]int64":
		return "MustInt64s()"
	case "string":
		return "MustString()"
	case "[]byte":
		return "MustBytes()"
	}
	panic("idl: unreachable type " + typ)
}

// Generate emits a gofmt-formatted Go source file for the parsed IDL,
// placed in the named package.  The emitted code depends only on the
// sciddle runtime and pvm.
func Generate(f *File, pkg string) ([]byte, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by sciddlegen. DO NOT EDIT.\n\n")
	fmt.Fprintf(&b, "package %s\n\n", pkg)
	fmt.Fprintf(&b, "import (\n\t\"opalperf/internal/pvm\"\n\t\"opalperf/internal/sciddle\"\n)\n\n")
	for i := range f.Services {
		genService(&b, &f.Services[i])
	}
	src := []byte(b.String())
	out, err := format.Source(src)
	if err != nil {
		return src, fmt.Errorf("idl: generated code does not format: %w", err)
	}
	return out, nil
}

func genService(b *strings.Builder, s *Service) {
	name := export(s.Name)
	// Handler interface.
	fmt.Fprintf(b, "// %sHandler is the server-side implementation of service %s.\n", name, s.Name)
	fmt.Fprintf(b, "// Of the task argument a handler may use only its identity, Charge and\n")
	fmt.Fprintf(b, "// SetWorkingSet (see sciddle.Handler).\n")
	fmt.Fprintf(b, "type %sHandler interface {\n", name)
	for _, m := range s.Methods {
		fmt.Fprintf(b, "\t%s(t pvm.Task%s)%s\n", export(m.Name), sigParams(m.Args), sigResults(m.Rets))
	}
	fmt.Fprintf(b, "}\n\n")

	// Registration.  The generated handlers keep per-method scratch in the
	// closures: one reply buffer Reset and repacked per call, and one
	// reusable slice per []float64 argument, so a steady-state RPC phase
	// allocates nothing on the server.  Safe under the synchronous Sciddle
	// phase protocol (see the reuse contract on pvm.Buffer.Reset).
	fmt.Fprintf(b, "// Register%s binds h's methods onto svc.\n//\n", name)
	fmt.Fprintf(b, "// The []float64 arguments passed to h are stub-owned scratch, valid only\n")
	fmt.Fprintf(b, "// for the duration of the call; handlers that retain them must copy.\n")
	fmt.Fprintf(b, "func Register%s(svc *sciddle.Service, h %sHandler) {\n", name, name)
	for _, m := range s.Methods {
		for _, a := range m.Args {
			if a.Type == "[]float64" {
				fmt.Fprintf(b, "\tvar %s []float64\n", scratchName(m, a))
			}
		}
		if len(m.Rets) > 0 {
			fmt.Fprintf(b, "\t%sRep := pvm.NewBuffer()\n", m.Name)
		}
		fmt.Fprintf(b, "\tsvc.Register(%q, func(t pvm.Task, b *pvm.Buffer) *pvm.Buffer {\n", m.Name)
		for _, a := range m.Args {
			if a.Type == "[]float64" {
				fmt.Fprintf(b, "\t\tb.MustFloat64sReuse(&%s)\n", scratchName(m, a))
				fmt.Fprintf(b, "\t\t%s := %s\n", a.Name, scratchName(m, a))
			} else {
				fmt.Fprintf(b, "\t\t%s := b.%s\n", a.Name, mustCall(a.Type))
			}
		}
		retNames := make([]string, len(m.Rets))
		for i, r := range m.Rets {
			retNames[i] = r.Name
		}
		call := fmt.Sprintf("h.%s(t%s)", export(m.Name), argList(m.Args))
		if len(m.Rets) == 0 {
			fmt.Fprintf(b, "\t\t%s\n\t\treturn nil\n", call)
		} else {
			fmt.Fprintf(b, "\t\t%s := %s\n", strings.Join(retNames, ", "), call)
			fmt.Fprintf(b, "\t\trep := %sRep.Reset()\n", m.Name)
			for _, r := range m.Rets {
				fmt.Fprintf(b, "\t\trep.%s(%s)\n", packCall(r.Type), r.Name)
			}
			fmt.Fprintf(b, "\t\treturn rep\n")
		}
		fmt.Fprintf(b, "\t})\n")
	}
	fmt.Fprintf(b, "}\n\n")

	// Client.
	fmt.Fprintf(b, "// %sClient is the typed client stub for service %s.\n", name, s.Name)
	fmt.Fprintf(b, "type %sClient struct {\n\tConn *sciddle.Conn\n}\n\n", name)
	fmt.Fprintf(b, "// New%sClient wraps an established connection.\n", name)
	fmt.Fprintf(b, "func New%sClient(conn *sciddle.Conn) *%sClient {\n\treturn &%sClient{Conn: conn}\n}\n\n", name, name, name)
	for _, m := range s.Methods {
		genClientMethod(b, name, m)
	}
}

// scratchName names the per-method reusable unpack slice for a []float64
// argument, e.g. nbintCoords.  Method names are unique per service, so the
// names cannot collide within a registration function.
func scratchName(m Method, a Param) string { return m.Name + export(a.Name) }

func sigParams(ps []Param) string {
	var sb strings.Builder
	for _, p := range ps {
		fmt.Fprintf(&sb, ", %s %s", p.Name, p.Type)
	}
	return sb.String()
}

func sigResults(ps []Param) string {
	if len(ps) == 0 {
		return ""
	}
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = fmt.Sprintf("%s %s", p.Name, p.Type)
	}
	return " (" + strings.Join(parts, ", ") + ")"
}

func argList(ps []Param) string {
	var sb strings.Builder
	for _, p := range ps {
		fmt.Fprintf(&sb, ", %s", p.Name)
	}
	return sb.String()
}

func genClientMethod(b *strings.Builder, svcName string, m Method) {
	mName := export(m.Name)
	replyType := svcName + mName + "Reply"
	packInto := fmt.Sprintf("Pack%s%sArgsInto", svcName, mName)
	unpackInto := fmt.Sprintf("unpack%s%sReplyInto", svcName, mName)
	if len(m.Rets) > 0 {
		fmt.Fprintf(b, "// %s holds the results of %s.%s.\n", replyType, svcName, mName)
		fmt.Fprintf(b, "type %s struct {\n", replyType)
		for _, r := range m.Rets {
			fmt.Fprintf(b, "\t%s %s\n", export(r.Name), r.Type)
		}
		fmt.Fprintf(b, "}\n\n")
		// In-place reply unpacker: []float64 results reuse the capacity of
		// the previous contents of the field, so a steady-state caller that
		// keeps its reply slots unpacks without heap allocation.
		fmt.Fprintf(b, "func %s(b *pvm.Buffer, r *%s) {\n", unpackInto, replyType)
		for _, rp := range m.Rets {
			if rp.Type == "[]float64" {
				fmt.Fprintf(b, "\tb.MustFloat64sReuse(&r.%s)\n", export(rp.Name))
			} else {
				fmt.Fprintf(b, "\tr.%s = b.%s\n", export(rp.Name), mustCall(rp.Type))
			}
		}
		fmt.Fprintf(b, "}\n\n")
	}
	// Synchronous per-server call.  Like the phase call below it returns
	// transport failures (reply deadline expired through every retry,
	// session died) as errors — see sciddle.Conn.SetCallTimeout and
	// sciddle.ServerError.
	fmt.Fprintf(b, "// %s calls %s on server index i; a transport failure comes back as a\n", mName, m.Name)
	fmt.Fprintf(b, "// *sciddle.ServerError.\n")
	if len(m.Rets) > 0 {
		fmt.Fprintf(b, "func (c *%sClient) %s(i int%s) (%s, error) {\n", svcName, mName, sigParams(m.Args), replyType)
		fmt.Fprintf(b, "\tvar r %s\n", replyType)
	} else {
		fmt.Fprintf(b, "func (c *%sClient) %s(i int%s) error {\n", svcName, mName, sigParams(m.Args))
	}
	fmt.Fprintf(b, "\targs := pvm.NewBuffer()\n\t%s(args%s)\n", packInto, argList(m.Args))
	if len(m.Rets) > 0 {
		fmt.Fprintf(b, "\trep, err := c.Conn.Call(i, %q, args)\n", m.Name)
		fmt.Fprintf(b, "\tif err != nil {\n\t\treturn r, err\n\t}\n")
		fmt.Fprintf(b, "\t%s(rep, &r)\n\treturn r, nil\n}\n\n", unpackInto)
	} else {
		fmt.Fprintf(b, "\t_, err := c.Conn.Call(i, %q, args)\n\treturn err\n}\n\n", m.Name)
	}
	// Phase call over all servers: arguments are packed into
	// connection-owned request buffers (reused across phases) and, for
	// methods with results, replies are unpacked in place into the caller's
	// reply slots.
	if len(m.Rets) > 0 {
		fmt.Fprintf(b, "// %sPhaseInto calls %s once on every server (one SPMD phase): pack writes\n", mName, m.Name)
		fmt.Fprintf(b, "// the per-server arguments into a connection-owned request buffer, and the\n")
		fmt.Fprintf(b, "// replies are unpacked into out (one slot per current server), reusing the\n")
		fmt.Fprintf(b, "// capacity of its slice fields.  A caller that keeps out across phases\n")
		fmt.Fprintf(b, "// allocates nothing per phase.  A transport failure comes back as a\n")
		fmt.Fprintf(b, "// *sciddle.ServerError naming the failed server.\n")
		fmt.Fprintf(b, "func (c *%sClient) %sPhaseInto(pack func(i int, args *pvm.Buffer), out []%s) error {\n", svcName, mName, replyType)
		fmt.Fprintf(b, "\treps, err := c.Conn.CallPhasePacked(%q, pack)\n", m.Name)
		fmt.Fprintf(b, "\tif err != nil {\n\t\treturn err\n\t}\n")
		fmt.Fprintf(b, "\tfor i, rep := range reps {\n\t\t%s(rep, &out[i])\n\t}\n\treturn nil\n}\n\n", unpackInto)
	} else {
		fmt.Fprintf(b, "// %sPhasePacked calls %s once on every server (one SPMD phase): pack\n", mName, m.Name)
		fmt.Fprintf(b, "// writes the per-server arguments into a connection-owned request buffer.\n")
		fmt.Fprintf(b, "// A transport failure comes back as a *sciddle.ServerError naming the\n")
		fmt.Fprintf(b, "// failed server.\n")
		fmt.Fprintf(b, "func (c *%sClient) %sPhasePacked(pack func(i int, args *pvm.Buffer)) error {\n", svcName, mName)
		fmt.Fprintf(b, "\t_, err := c.Conn.CallPhasePacked(%q, pack)\n\treturn err\n}\n\n", m.Name)
	}
	// Exported in-place args packer, for the pack callbacks of the phase calls.
	fmt.Fprintf(b, "// %s packs the arguments of %s into b.\n", packInto, m.Name)
	if len(m.Args) == 0 {
		fmt.Fprintf(b, "func %s(_ *pvm.Buffer) {}\n\n", packInto)
		return
	}
	fmt.Fprintf(b, "func %s(b *pvm.Buffer%s) {\n", packInto, sigParams(m.Args))
	for _, a := range m.Args {
		fmt.Fprintf(b, "\tb.%s(%s)\n", packCall(a.Type), a.Name)
	}
	fmt.Fprintf(b, "}\n\n")
}
