package vm

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/minic"
)

// opsType is one arithmetic type of the operator table: its C spelling,
// the prefix of its variables, and its class.
type opsType struct {
	name, v        string
	float, integer bool
}

var opsTypes = []opsType{
	{"char", "c", false, true}, {"unsigned char", "uc", false, true},
	{"short", "s", false, true}, {"unsigned short", "us", false, true},
	{"int", "i", false, true}, {"unsigned int", "ui", false, true},
	{"long", "l", false, true}, {"unsigned long", "ul", false, true},
	{"float", "f", true, false}, {"double", "d", true, false},
}

// opsLine is one row of the table: the statements that set it up, the
// expression it prints, and whether the printed value is floating.
type opsLine struct {
	setup, expr string
	float       bool
	// after, when set, is printed too: the variable a side effect wrote.
	after string
}

// opsTable lists every row: each unary, binary, compound-assign, ++/--,
// cast and ?: form over the arithmetic types, their mixed pairs, and
// pointers. Every variable <v>a holds -7 and <v>b holds 3 converted to its
// type, except where a row's setup assigns it.
func opsTable() []opsLine {
	var rows []opsLine
	add := func(l opsLine) { rows = append(rows, l) }
	for _, t := range opsTypes {
		for _, x := range []string{t.v + "a", t.v + "b", t.v + "m"} {
			for _, op := range []string{"-", "+", "!"} {
				add(opsLine{expr: op + x, float: t.float && op != "!"})
			}
			if t.integer {
				add(opsLine{expr: "~" + x})
			}
			for _, op := range []string{"++", "--"} {
				add(opsLine{setup: t.v + "x = " + x + ";", expr: op + t.v + "x", float: t.float, after: t.v + "x"})
				add(opsLine{setup: t.v + "x = " + x + ";", expr: t.v + "x" + op, float: t.float, after: t.v + "x"})
			}
		}
	}
	for _, l := range opsTypes {
		for _, r := range opsTypes {
			fl := l.float || r.float
			for _, pair := range [][2]string{{"a", "b"}, {"m", "b"}} {
				x, y := l.v+pair[0], r.v+pair[1]
				for _, op := range []string{"+", "-", "*", "/"} {
					add(opsLine{expr: x + " " + op + " " + y, float: fl})
				}
				if l.integer && r.integer {
					for _, op := range []string{"%", "&", "|", "^", "<<", ">>"} {
						add(opsLine{expr: x + " " + op + " " + y})
					}
				}
				for _, op := range []string{"<", "<=", ">", ">=", "==", "!=", "&&", "||"} {
					add(opsLine{expr: x + " " + op + " " + y})
				}
				add(opsLine{expr: "(" + x + " < " + y + " ? " + x + " : " + y + ")", float: fl})
			}
			ops := []string{"+=", "-=", "*=", "/="}
			if l.integer && r.integer {
				ops = append(ops, "%=", "&=", "|=", "^=", "<<=", ">>=")
			}
			for _, op := range ops {
				add(opsLine{setup: l.v + "x = " + l.v + "a;", expr: l.v + "x " + op + " " + r.v + "b", float: l.float, after: l.v + "x"})
			}
			for _, from := range []string{"a", "m", "h"} {
				add(opsLine{expr: "(" + l.name + ")" + r.v + from, float: l.float})
			}
		}
	}
	for _, e := range []string{
		"q - p", "p - q", "p < q", "p <= q", "p > q", "p >= q", "p == q", "p != q",
		"p == 0", "p != 0", "!p", "!np", "np == 0", "p && q", "np || p", "np && p",
		"*p", "p[1]", "*(p + 3)", "(p + 3) - arr", "(3 + p) - arr", "(q - 2) - arr",
		"(p ? 10 : 20)", "(np ? 10 : 20)", "(np ? p : q) - arr", "(p ? np : q) == 0",
		"(char *)(void *)q - (char *)(void *)p", "dq - dp", "(dp + 1) - darr",
		"(int *)vp - arr", "vp == (void *)p", "sizeof(int *)", "sizeof(struct rec)",
		"sizeof(long)", "sizeof(double)", "sizeof(r)", "rp->c", "rp->d", "rp->n",
		"r.n", "(&r)->d", "&r.d == &rp->d", "(char *)(void *)&r.n - (char *)(void *)&r",
		"(char *)(void *)&r.d - (char *)(void *)&r", "sizeof(r.d)",
	} {
		add(opsLine{expr: e, float: e == "rp->d" || e == "(&r)->d"})
	}
	for _, op := range []string{"++p", "p++", "--p", "p--"} {
		add(opsLine{setup: "p = arr + 2;", expr: op + " - arr", after: "p - arr"})
	}
	for _, op := range []string{"p += 3", "p -= 1"} {
		add(opsLine{setup: "p = arr + 2;", expr: "(" + op + ") - arr", after: "p - arr"})
	}
	return rows
}

// opsProgram renders the table as one MigC program printing one line per
// row.
func opsProgram(rows []opsLine) string {
	var b strings.Builder
	b.WriteString("struct rec { char c; double d; int n; };\nint main() {\n")
	for _, t := range opsTypes {
		fmt.Fprintf(&b, "\t%s %sa, %sb, %sm, %sh, %sx;\n", t.name, t.v, t.v, t.v, t.v, t.v)
	}
	b.WriteString("\tint arr[8];\n\tint *p, *q, *np;\n\tdouble darr[4];\n\tdouble *dp, *dq;\n\tvoid *vp;\n\tstruct rec r;\n\tstruct rec *rp;\n\tint k;\n")
	for _, t := range opsTypes {
		fmt.Fprintf(&b, "\t%sa = -7; %sb = 3; %sm = 200; %sh = 3000000000.5;\n", t.v, t.v, t.v, t.v)
	}
	b.WriteString("\tfor (k = 0; k < 8; k++) arr[k] = k * k - 5;\n\tp = arr + 2; q = arr + 5; np = 0;\n" +
		"\tdp = darr; dq = darr + 3;\n\tvp = (void *)(arr + 4);\n\tr.c = 'x'; r.d = -2.5; r.n = 41;\n\trp = &r;\n")
	for _, l := range rows {
		f := "%d"
		if l.float {
			f = "%.17g"
		}
		if l.setup != "" {
			b.WriteString("\t" + l.setup + "\n")
		}
		if l.after != "" {
			fa := "%d"
			if l.float {
				fa = "%.17g"
			}
			fmt.Fprintf(&b, "\tprintf(\"%s \", %s);\n\tprintf(\"%s\\n\", %s);\n", f, l.expr, fa, l.after)
			continue
		}
		fmt.Fprintf(&b, "\tprintf(\"%s\\n\", %s);\n", f, l.expr)
	}
	b.WriteString("\treturn 0;\n}\n")
	return b.String()
}

// TestOperatorTable runs every operator form over every arithmetic type
// and pointers on two ILP32 and two LP64 machines of both byte orders,
// and holds the results to testdata/ops.golden byte for byte: one row per
// expression, one column per machine. The golden was written by the
// tree-walking evaluator the compiled one replaced.
func TestOperatorTable(t *testing.T) {
	rows := opsTable()
	src := opsProgram(rows)
	machines := []*arch.Machine{arch.DEC5000, arch.SPARC20, arch.AMD64, arch.SPARCV9}
	cols := make([][]string, len(machines))
	for i, m := range machines {
		code, out := run(t, src, m, minic.PollPolicy{})
		if code != 0 {
			t.Fatalf("%s: exit %d", m.Name, code)
		}
		cols[i] = strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		if len(cols[i]) != len(rows) {
			t.Fatalf("%s: %d lines of output for %d rows", m.Name, len(cols[i]), len(rows))
		}
	}
	var b strings.Builder
	b.WriteString("# expression\tdec5000\tsparc20\tamd64\tsparcv9 (xa = -7, xb = 3, xm = 200, xh = 3000000000.5 for each type prefix x)\n")
	for r, l := range rows {
		b.WriteString(l.expr)
		if l.after != "" {
			b.WriteString(" ; " + l.after)
		}
		for i := range machines {
			b.WriteString("\t" + cols[i][r])
		}
		b.WriteString("\n")
	}
	got := b.String()
	const path = "testdata/ops.golden"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	bad := 0
	for i := 0; i < len(gl) && i < len(wl) && bad < 20; i++ {
		if gl[i] != wl[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, gl[i], wl[i])
			bad++
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("%d rows, golden has %d", len(gl), len(wl))
	}
}
