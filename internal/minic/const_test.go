package minic_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/minic"
	"repro/internal/vm"
)

// initAndMain initializes a global of type typ with expr and assigns the
// same expression to a local of main, then prints both on every machine.
// A global initializer is evaluated at the process's machine by the same
// evaluator as code in a function, so the two must agree everywhere.
// When portable, the value must also be the same on every machine, and
// initAndMain returns it.
func initAndMain(t *testing.T, typ, expr string, portable bool) string {
	t.Helper()
	format := `"%d\n"`
	switch {
	case typ == "double" || typ == "float":
		format = `"%.17g\n"`
	case strings.HasPrefix(typ, "unsigned"):
		format = `"%u\n"`
	}
	src := fmt.Sprintf(`%s g = %s;
int main() {
	%s l;
	l = %s;
	printf(%s, g);
	printf(%s, l);
	return 0;
}`, typ, expr, typ, expr, format, format)
	prog, err := minic.Compile(src, minic.PollPolicy{})
	if err != nil {
		t.Fatalf("%s g = %s: %v", typ, expr, err)
	}
	var want string
	for _, m := range arch.Machines() {
		p, err := vm.NewProcess(prog, m)
		if err != nil {
			t.Fatalf("%s g = %s on %s: %v", typ, expr, m.Name, err)
		}
		var out bytes.Buffer
		p.Stdout = &out
		if _, err := p.Run(); err != nil {
			t.Fatalf("%s g = %s on %s: %v", typ, expr, m.Name, err)
		}
		lines := strings.Fields(out.String())
		if len(lines) != 2 || lines[0] != lines[1] {
			t.Errorf("%s g = %s on %s: global and main print %q", typ, expr, m.Name, lines)
			continue
		}
		if want == "" {
			want = lines[0]
		} else if portable && lines[0] != want {
			t.Errorf("%s g = %s: %s on %s, %s on the first machine", typ, expr, lines[0], m.Name, want)
		}
	}
	return want
}

func TestConstIntExpressions(t *testing.T) {
	for _, c := range []struct{ typ, expr, want string }{
		{"long long", "5", "5"},
		{"long long", "-5", "-5"},
		{"long long", "+5", "5"},
		{"long long", "~0", "-1"},
		{"long long", "!0", "1"},
		{"long long", "!7", "0"},
		{"long long", "2 + 3 * 4", "14"},
		{"long long", "(2 + 3) * 4", "20"},
		{"long long", "20 / 3", "6"},
		{"long long", "20 % 3", "2"},
		{"long long", "1 << 10", "1024"},
		{"long long", "1024 >> 3", "128"},
		{"long long", "12 & 10", "8"},
		{"long long", "12 | 10", "14"},
		{"long long", "12 ^ 10", "6"},
		{"long long", "'A'", "65"},
		{"long long", "(int)2.9", "2"},
		{"long long", "7 < 9", "1"},
		{"long long", "sizeof(int) * 8", "32"},
		{"long long", `sizeof("abc")`, "4"},
		// C arithmetic at int: the sum wraps before the division, in a
		// global initializer as in main.
		{"int", "(2147483647 + 1) / 2", "-1073741824"},
		{"int", "1 << 31", "-2147483648"},
		{"unsigned int", "-1", "4294967295"},
		{"short", "40000", "-25536"},
	} {
		if got := initAndMain(t, c.typ, c.expr, true); got != c.want {
			t.Errorf("%s g = %s is %s, want %s", c.typ, c.expr, got, c.want)
		}
	}
	// Machine-dependent values agree with main on each machine.
	initAndMain(t, "long", "sizeof(long) * 1000 + sizeof(double *)", false)
}

func TestConstFloatExpressions(t *testing.T) {
	for _, c := range []struct{ typ, expr, want string }{
		{"double", "1.5", "1.5"},
		{"double", "-1.5", "-1.5"},
		{"double", "1.5 + 2", "3.5"},
		{"double", "3 * 0.5", "1.5"},
		{"double", "7.0 / 2", "3.5"},
		{"double", "(double)3", "3"},
		{"double", "1.5 / 0.0", "+Inf"},
		{"double", "-1.5 / 0.0", "-Inf"},
		{"double", "(float)0.1", "0.10000000149011612"},
	} {
		if got := initAndMain(t, c.typ, c.expr, true); got != c.want {
			t.Errorf("%s g = %s is %s, want %s", c.typ, c.expr, got, c.want)
		}
	}
}

func TestConstConversionsAtInit(t *testing.T) {
	for _, c := range []struct{ typ, expr, want string }{
		{"int", "2.75", "2"},
		{"double", "3", "3"},
		{"char", "300", "44"},
		{"unsigned char", "-1", "255"},
		{"float", "0.1", "0.10000000149011612"},
		{"int", "-2.75", "-2"},
		// A floating value in [2^63, 2^64) converts exactly to a 64-bit
		// unsigned integer; one at or above 2^64 saturates.
		{"unsigned long long", "1e19", "10000000000000000000"},
		{"unsigned long long", "1e20", "18446744073709551615"},
	} {
		if got := initAndMain(t, c.typ, c.expr, true); got != c.want {
			t.Errorf("%s g = %s is %s, want %s", c.typ, c.expr, got, c.want)
		}
	}
	// The widths differ: each machine agrees with its own main.
	initAndMain(t, "long", "2147483647 + 1", false)
	initAndMain(t, "unsigned long", "-1", false)
}

func TestConstRejectsNonConstant(t *testing.T) {
	for _, init := range []string{
		"y",
		"y + 1",
		"&y",
		"y = 2",
		"y++",
		"f()",
		"1 ? 2 : 3",
		"~1.5",
		`"s"`,
	} {
		src := "int y; int f() { return 1; } int x = " + init + "; int main() { return 0; }"
		if _, err := minic.Compile(src, minic.PollPolicy{}); err == nil {
			t.Errorf("%q accepted as a constant initializer", init)
		}
	}
	// An integer divisor other than a non-zero literal may be zero on some
	// machine, so the checker rejects it on every machine.
	for _, init := range []string{"1 / 0", "1 % 0", "1 / -0", "1 / (sizeof(long) - 4)", "1 % (sizeof(int *) - 4)", "1 / (int)0.5", "6 / (2 - 2)", "-(1 && 2 / (sizeof(long) - 4))"} {
		if _, err := minic.Compile("int x = "+init+"; int main() { return 0; }", minic.PollPolicy{}); err == nil ||
			!strings.Contains(err.Error(), "non-zero integer literal") {
			t.Errorf("int x = %s: %v, want a divisor error", init, err)
		}
	}
	// Literal divisors, and floating division by anything, compile and
	// build on every machine.
	for _, init := range []string{"7 / -2", "7 % +2", "(2147483647 + 1) / 2", "1.0 / (sizeof(long) - 4)", "1 / 0.0", "sizeof(1 / 0)"} {
		prog, err := minic.Compile("double x = "+init+"; int main() { return 0; }", minic.PollPolicy{})
		if err != nil {
			t.Errorf("double x = %s: %v", init, err)
			continue
		}
		for _, m := range arch.Machines() {
			if _, err := vm.NewProcess(prog, m); err != nil {
				t.Errorf("double x = %s on %s: %v", init, m.Name, err)
			}
		}
	}
	if _, err := minic.Compile("int *p = 0; int *q = 1; int main() { return 0; }", minic.PollPolicy{}); err == nil ||
		!strings.Contains(err.Error(), "cannot initialize q") {
		t.Errorf("int *q = 1: %v, want cannot initialize q", err)
	}
}
