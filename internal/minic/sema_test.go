package minic

import (
	"strings"
	"testing"

	"repro/internal/types"
)

func mustCheck(t *testing.T, src string) *Program {
	t.Helper()
	tree, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := Check(tree)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return prog
}

func checkErr(t *testing.T, src, want string) {
	t.Helper()
	tree, err := Parse(src)
	if err != nil {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("parse error %q does not contain %q", err, want)
		}
		return
	}
	_, err = Check(tree)
	if err == nil {
		t.Errorf("expected check error containing %q", want)
		return
	}
	if !strings.Contains(err.Error(), want) {
		// ErrorList truncates; search the full list.
		if el, ok := err.(ErrorList); ok {
			for _, e := range el {
				if strings.Contains(e.Error(), want) {
					return
				}
			}
		}
		t.Errorf("check error %q does not contain %q", err, want)
	}
}

func TestCheckPaperExample(t *testing.T) {
	prog := mustCheck(t, `
		struct node {
			float data;
			struct node *link;
		};
		struct node *first, *last;

		void foo(struct node **p, int **q) {
			*p = (struct node *) malloc(sizeof(struct node));
			(*p)->data = 10.0;
			(**q)++;
		}

		int main() {
			int i;
			int a, *b;
			struct node *parray[10];
			a = 1;
			b = &a;
			for (i = 0; i < 10; i++) {
				foo(parray + i, &b);
				first = parray[0];
				last = parray[i];
				first->link = last;
				if (i > 0) parray[i]->link = parray[i-1];
			}
			return 0;
		}
	`)
	if len(prog.Globals) != 2 {
		t.Errorf("globals = %d", len(prog.Globals))
	}
	main := prog.Func("main")
	if main == nil || len(main.Locals) != 4 {
		t.Fatalf("main locals = %v", main)
	}
	// a must be address-taken (&a); parray as an aggregate.
	byName := map[string]*VarSymbol{}
	for _, l := range main.Locals {
		byName[l.Name] = l
	}
	if !byName["a"].AddrTaken {
		t.Error("a should be address-taken")
	}
	if !byName["parray"].AddrTaken {
		t.Error("parray (aggregate) should be address-taken")
	}
	if byName["i"].AddrTaken {
		t.Error("i should not be address-taken")
	}
	// The malloc call must have been typed with struct node.
	foo := prog.Func("foo")
	var call *Call
	walkStmtExprs(foo.Body, func(e Expr) {
		if c, ok := e.(*Call); ok && c.Builtin == "malloc" {
			call = c
		}
	})
	if call == nil || call.MallocElem == nil || call.MallocElem.TagName != "node" {
		t.Errorf("malloc element type not inferred: %+v", call)
	}
}

func TestCheckTITableContents(t *testing.T) {
	prog := mustCheck(t, `
		struct node { float data; struct node *link; };
		struct node *head;
		double m[100];
		int main() { head = (struct node*)malloc(sizeof(struct node)); return 0; }
	`)
	node := prog.Structs[0]
	for _, ty := range []*types.Type{node, types.PointerTo(node), types.ArrayOf(types.Double, 100)} {
		if _, ok := prog.TI.Index(ty); !ok {
			t.Errorf("TI table missing %s", ty)
		}
	}
}

func TestCheckArithmeticTypes(t *testing.T) {
	prog := mustCheck(t, `
		int main() {
			int i; unsigned int u; long l; double d; float f; char c;
			i = i + c;
			d = i + d;
			f = f + i;
			l = l + i;
			u = u + i;
			i = i % 3;
			i = i << 2;
			i = (i < l) + (d > f);
			return 0;
		}
	`)
	_ = prog
}

func TestCheckPointerArithmetic(t *testing.T) {
	mustCheck(t, `
		int main() {
			int a[10];
			int *p, *q;
			long diff;
			p = a;
			q = p + 3;
			q = 3 + p;
			q = q - 1;
			diff = q - p;
			if (p < q) p++;
			if (p == 0) q = p;
			return 0;
		}
	`)
}

func TestCheckErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"int main() { undeclared = 1; return 0; }", "undeclared"},
		{"int main() { int x; x = y; return 0; }", "undeclared identifier y"},
		{"int x; int x; int main() { return 0; }", "redeclared"},
		{"int main() { int x; int x; return 0; }", "redeclared in this scope"},
		{"void v; int main() { return 0; }", "type void"},
		{"int main() { int *p; p = p * 2; return 0; }", "invalid operands"},
		{"int main() { double d; d = d % 2.0; return 0; }", "integer operands"},
		{"int main() { int x; x[0] = 1; return 0; }", "not an array or pointer"},
		{"int main() { int x; x.f = 1; return 0; }", "non-struct"},
		{"struct s {int a;}; int main() { struct s v; v.b = 1; return 0; }", "no field b"},
		{"int main() { 3 = 4; return 0; }", "not an lvalue"},
		{"int main() { int a[3]; int b[3]; a = b; return 0; }", "cannot assign to an array"},
		{"int main() { return &0; }", "address of a non-lvalue"},
		{"int main() { int x; *x = 1; return 0; }", "dereference non-pointer"},
		{"int main() { void *p; *p; return 0; }", "dereference void pointer"},
		{"int f(int a) { return a; } int main() { return f(); }", "want 1"},
		{"int main() { return g(); }", "undefined function g"},
		{"int main() { break; }", "break outside loop"},
		{"int main() { continue; }", "continue outside loop"},
		{"void f(void) {} int main() { int x; x = f(); return 0; }", "cannot assign"},
		{"int main() { return; }", "return with no value"},
		{"void f(void) { return 3; } int main() { return 0; }", "return with a value"},
		{"int main() { int *p; double *q; p = q; return 0; }", "incompatible pointer"},
		{"struct s; int main() { return 0; }", "expected"},
		{"int main() { struct nosuch v; return 0; }", "incomplete type"},
		{"int printf(int x) { return x; } int main() { return 0; }", "conflicts with a runtime builtin"},
		{"int f() { return 1; }", "no main"},
		{"int main(int argc) { return 0; }", "main must take no parameters"},
	}
	for _, c := range cases {
		checkErr(t, c.src, c.want)
	}
}

func TestCheckMigrationUnsafe(t *testing.T) {
	cases := []struct{ src, want string }{
		{"int main() { int x; int *p; x = (int)p; return 0; }",
			"pointer and integer"},
		{"int main() { int x; int *p; p = (int*)x; return 0; }",
			"pointer and integer"},
		{"int main() { int *p; double *q; q = (double*)p; return 0; }",
			"migration-safe"},
		{"int main() { int *p; p = malloc(8); return 0; }", ""}, // ok: typed via target
		{"int main() { void *p; p = malloc(8); return 0; }",
			"typed pointer"},
	}
	for _, c := range cases {
		if c.want == "" {
			mustCheck(t, c.src)
		} else {
			checkErr(t, c.src, c.want)
		}
	}
}

func TestCheckVoidPointerLaundering(t *testing.T) {
	// Conversions through void* are allowed in both directions.
	mustCheck(t, `
		void *any;
		int main() {
			int *p;
			double *q;
			any = p;
			q = (double*)any;
			free(q);
			return 0;
		}
	`)
}

func TestCheckStringLiterals(t *testing.T) {
	prog := mustCheck(t, `
		int main() {
			printf("hello %d\n", 42);
			printf("hello %d\n", 43);
			printf("other");
			return 0;
		}
	`)
	// Two distinct literals => two synthetic globals.
	synthetic := 0
	for _, g := range prog.Globals {
		if g.Str != "" {
			synthetic++
			if g.Type.Kind != types.KArray || g.Type.Elem != types.Char {
				t.Errorf("string literal type = %s", g.Type)
			}
		}
	}
	if synthetic != 2 {
		t.Errorf("synthetic string globals = %d, want 2 (interned)", synthetic)
	}
}

func TestCheckScoping(t *testing.T) {
	prog := mustCheck(t, `
		int x;
		int main() {
			int x;
			x = 1;
			{
				int x;
				x = 2;
			}
			return x;
		}
	`)
	main := prog.Func("main")
	if len(main.Locals) != 2 {
		t.Errorf("locals = %d (both x's must get frame slots)", len(main.Locals))
	}
	if main.Locals[0].Index != 0 || main.Locals[1].Index != 1 {
		t.Error("local indices must be sequential")
	}
}

func TestCheckStructSelfContainment(t *testing.T) {
	checkErr(t, "struct s { struct s inner; }; int main() { return 0; }", "contains itself")
	checkErr(t, `
		struct a { struct b x; };
		struct b { struct a y; };
		int main() { return 0; }
	`, "contains itself")
	// Self-reference through a pointer is fine.
	mustCheck(t, "struct s { struct s *next; }; int main() { return 0; }")
}

func TestCheckArrayParamAdjustment(t *testing.T) {
	prog := mustCheck(t, `
		double sum(double a[10], int n) { return a[0] + n; }
		int main() { double xs[10]; sum(xs, 10); return 0; }
	`)
	f := prog.Func("sum")
	if f.Params[0].Type != types.PointerTo(types.Double) {
		t.Errorf("array param type = %s, want double*", f.Params[0].Type)
	}
}

func TestCheckTernary(t *testing.T) {
	mustCheck(t, `
		int main() {
			int a; double d; int *p;
			d = a ? 1.5 : a;
			p = a ? p : 0;
			return a ? 0 : 1;
		}
	`)
	checkErr(t, "int main() { int *p; double d; d = 1 ? p : d; return 0; }",
		"incompatible conditional")
}

func TestCheckStatementIDsUnique(t *testing.T) {
	prog := mustCheck(t, `
		int main() {
			int i;
			for (i = 0; i < 3; i++) { if (i) { i--; } else { i++; } }
			while (i) i--;
			return 0;
		}
	`)
	seen := map[int]bool{}
	var walk func(Stmt)
	walk = func(s Stmt) {
		if s == nil {
			return
		}
		if seen[s.id()] {
			t.Errorf("duplicate statement id %d", s.id())
		}
		seen[s.id()] = true
		switch st := s.(type) {
		case *Block:
			for _, x := range st.Stmts {
				walk(x)
			}
		case *If:
			walk(st.Then)
			walk(st.Else)
		case *While:
			walk(st.Body)
		case *For:
			walk(st.Body)
		}
	}
	walk(prog.Func("main").Body)
	if len(seen) < 8 {
		t.Errorf("only %d statements numbered", len(seen))
	}
}

func TestMarkAddrTakenThroughAccessPaths(t *testing.T) {
	prog := mustCompile(t, `
		struct s { int f; int arr[3]; };
		int main() {
			struct s v;
			int plain;
			int *p1, *p2, *p3;
			plain = 0;
			p1 = &v.f;
			p2 = &v.arr[1];
			p3 = &plain;
			return *p1 + *p2 + *p3;
		}
	`, PollPolicy{})
	byName := map[string]*VarSymbol{}
	for _, l := range prog.Func("main").Locals {
		byName[l.Name] = l
	}
	if !byName["v"].AddrTaken {
		t.Error("&v.f must mark v address-taken")
	}
	if !byName["plain"].AddrTaken {
		t.Error("&plain must mark plain address-taken")
	}
}

func TestUnaryCheckErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"int main() { int *p; p = -p; return 0; }", "arithmetic operand"},
		{"int main() { double d; d = ~d; return 0; }", "integer operand"},
		{"int main() { ++3; return 0; }", "lvalue"},
		{"int main() { int *p; int x; x = *&*p + 1; return x; }", ""},
	}
	for _, c := range cases {
		if c.want == "" {
			mustCheck(t, c.src)
			continue
		}
		checkErr(t, c.src, c.want)
	}
}
