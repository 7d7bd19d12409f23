package minic

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// This file renders a checked (and annotated) program back to source — the
// output side of the paper's source-to-source transformation. Poll-points
// appear as the inserted migration macros with their label statements and
// live sets, matching the annotation scheme of Section 2:
//
//	_mig_label_3: MIG_POLL(3 /* live: i, sum */);
//
// The emitted text (minus the macros, which re-parse as migrate_here
// intrinsics) is valid MigC: Fprint output re-parses and re-checks to an
// equivalent program, which the tests verify.

// Fprint renders the program. When macros is true, poll-points are
// rendered as the annotation macros with live sets; when false they are
// rendered as migrate_here(); intrinsics so the output re-parses.
func Fprint(sb *strings.Builder, prog *Program, macros bool) {
	pr := &printer{b: sb, macros: macros}
	for _, st := range prog.Structs {
		pr.structDef(st)
	}
	wroteGlobal := false
	for _, g := range prog.Globals {
		if g.Str != "" && strings.HasPrefix(g.Name, ".str") {
			continue // synthetic string literal globals are implicit
		}
		switch {
		case g.Str != "":
			pr.writef("%s = %s;\n", declString(g.Type, g.Name), quoteC(g.Str))
		case g.Init != nil:
			pr.writef("%s = %s;\n", declString(g.Type, g.Name), exprString(g.Init))
		default:
			pr.writef("%s;\n", declString(g.Type, g.Name))
		}
		wroteGlobal = true
	}
	if wroteGlobal {
		pr.writef("\n")
	}
	for i, fn := range prog.Funcs {
		if i > 0 {
			pr.writef("\n")
		}
		pr.funcDef(fn)
	}
}

// Format returns the program as annotated source.
func Format(prog *Program, macros bool) string {
	var sb strings.Builder
	Fprint(&sb, prog, macros)
	return sb.String()
}

type printer struct {
	b      *strings.Builder
	macros bool
	indent int
}

func (p *printer) writef(format string, args ...interface{}) {
	fmt.Fprintf(p.b, format, args...)
}

func (p *printer) line(format string, args ...interface{}) {
	p.b.WriteString(strings.Repeat("\t", p.indent))
	fmt.Fprintf(p.b, format, args...)
	p.b.WriteByte('\n')
}

// declString renders a declaration of name with the given type in C
// spelling (handling the inside-out array syntax).
func declString(t *types.Type, name string) string {
	suffix := ""
	for t.Kind == types.KArray {
		suffix += fmt.Sprintf("[%d]", t.Len)
		t = t.Elem
	}
	stars := ""
	for t.Kind == types.KPointer {
		stars += "*"
		t = t.Elem
	}
	base := t.String()
	return fmt.Sprintf("%s %s%s%s", base, stars, name, suffix)
}

func (p *printer) structDef(st *types.Type) {
	p.line("struct %s {", st.TagName)
	p.indent++
	for _, f := range st.Fields {
		p.line("%s;", declString(f.Type, f.Name))
	}
	p.indent--
	p.line("};")
	p.writef("\n")
}

func (p *printer) funcDef(fn *FuncSymbol) {
	params := make([]string, len(fn.Params))
	for i, pv := range fn.Params {
		params[i] = declString(pv.Type, pv.Name)
	}
	paramList := strings.Join(params, ", ")
	if paramList == "" {
		paramList = "void"
	}
	ret := fn.Result.String()
	if p.macros && fn.Migratory {
		p.line("/* migratory: %d migration sites */", len(fn.Sites))
	}
	p.line("%s %s(%s) %s", ret, fn.Name, paramList, "{")
	p.indent++
	for _, s := range fn.Body.Stmts {
		p.stmt(s)
	}
	p.indent--
	p.line("}")
}

func (p *printer) stmt(s Stmt) {
	switch st := s.(type) {
	case *Block:
		p.line("{")
		p.indent++
		for _, sub := range st.Stmts {
			p.stmt(sub)
		}
		p.indent--
		p.line("}")

	case *DeclStmt:
		if st.Init != nil {
			p.line("%s = %s;", declString(st.Sym.Type, st.Sym.Name), exprString(st.Init))
		} else {
			p.line("%s;", declString(st.Sym.Type, st.Sym.Name))
		}

	case *ExprStmt:
		if p.macros && st.Site != nil {
			p.line("%s; /* call site %d, live: %s */", exprString(st.X), st.Site.ID, liveList(st.Site))
		} else {
			p.line("%s;", exprString(st.X))
		}

	case *If:
		p.line("if (%s)", exprString(st.Cond))
		p.nested(st.Then)
		if st.Else != nil {
			p.line("else")
			p.nested(st.Else)
		}

	case *While:
		if st.DoWhile {
			p.line("do")
			p.nested(st.Body)
			p.line("while (%s);", exprString(st.Cond))
		} else {
			p.line("while (%s)", exprString(st.Cond))
			p.nested(st.Body)
		}

	case *For:
		p.line("for (%s; %s; %s)",
			optExpr(st.Init), optExpr(st.Cond), optExpr(st.Post))
		p.nested(st.Body)

	case *Return:
		if st.X != nil {
			p.line("return %s;", exprString(st.X))
		} else {
			p.line("return;")
		}

	case *Break:
		p.line("break;")
	case *Continue:
		p.line("continue;")
	case *Empty:
		p.line(";")

	case *PollPoint:
		if p.macros {
			id := 0
			live := ""
			if st.Site != nil {
				id = st.Site.ID
				live = liveList(st.Site)
			}
			p.line("_mig_label_%d: MIG_POLL(%d /* %s, live: %s */);", id, id, st.Origin, live)
		} else {
			p.line("migrate_here();")
		}
	}
}

// nested prints a statement as the body of a control construct.
func (p *printer) nested(s Stmt) {
	if blk, ok := s.(*Block); ok {
		p.stmt(blk)
		return
	}
	p.indent++
	p.stmt(s)
	p.indent--
}

func optExpr(e Expr) string {
	if e == nil {
		return ""
	}
	return exprString(e)
}

func liveList(site *Site) string {
	if len(site.Live) == 0 {
		return "(none)"
	}
	names := make([]string, len(site.Live))
	for i, v := range site.Live {
		names[i] = v.Name
	}
	return strings.Join(names, ", ")
}

// exprString renders an expression, fully parenthesized where precedence
// could matter.
func exprString(e Expr) string {
	switch x := e.(type) {
	case *IntLit:
		return fmt.Sprintf("%d", x.Val)
	case *FloatLit:
		s := fmt.Sprintf("%g", x.Val)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case *StrLit:
		return quoteC(x.Val)
	case *Ident:
		return x.Name
	case *Unary:
		if x.Op == "++" || x.Op == "--" {
			return x.Op + exprString(x.X)
		}
		return x.Op + "(" + exprString(x.X) + ")"
	case *Postfix:
		return "(" + exprString(x.X) + ")" + x.Op
	case *Binary:
		return "(" + exprString(x.X) + " " + x.Op + " " + exprString(x.Y) + ")"
	case *Assign:
		return exprString(x.X) + " " + x.Op + " " + exprString(x.Y)
	case *Cond:
		return "(" + exprString(x.C) + " ? " + exprString(x.X) + " : " + exprString(x.Y) + ")"
	case *Index:
		return exprString(x.X) + "[" + exprString(x.I) + "]"
	case *Member:
		op := "."
		if x.Arrow {
			op = "->"
		}
		return "(" + exprString(x.X) + ")" + op + x.Name
	case *Call:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = exprString(a)
		}
		return x.Name + "(" + strings.Join(args, ", ") + ")"
	case *Cast:
		// Decay casts inserted by the checker are implicit in source.
		if x.X.Type() != nil && x.X.Type().Kind == types.KArray &&
			x.To == types.PointerTo(x.X.Type().Elem) {
			return exprString(x.X)
		}
		return "(" + castTypeString(x.To) + ")(" + exprString(x.X) + ")"
	case *SizeofExpr:
		if x.Of != nil {
			return "sizeof(" + castTypeString(x.Of) + ")"
		}
		return "sizeof(" + exprString(x.X) + ")"
	}
	return "/*?*/"
}

// castTypeString renders a type as it appears in a cast: base plus stars.
func castTypeString(t *types.Type) string {
	stars := ""
	for t.Kind == types.KPointer {
		stars += "*"
		t = t.Elem
	}
	return t.String() + stars
}

func quoteC(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case 0:
			b.WriteString(`\0`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}
