package minic

import (
	"strings"
	"testing"
)

const printSource = `
	struct node { float data; struct node *link; };
	struct node *head;
	int half = (2147483647 + 1) / 2;
	double inf = 1.5 / 0.0;
	struct node *none = 0;

	void push(int v) {
		struct node *c;
		c = (struct node *) malloc(sizeof(struct node));
		c->data = v;
		c->link = head;
		head = c;
	}

	int main() {
		int i, total;
		double avg;
		total = 0;
		for (i = 0; i < 10; i++) {
			push(i * 2 + 1);
			total += i;
		}
		while (head != 0) {
			total -= (int)head->data;
			head = head->link;
		}
		do { total++; } while (total < 0);
		if (total > 5) total = 5; else total = -total;
		avg = total > 0 ? 1.5 : 0.25;
		printf("avg %f total %d\n", avg, total);
		return total;
	}
`

func TestFormatRoundTrip(t *testing.T) {
	prog := mustCompile(t, printSource, DefaultPolicy)
	out := Format(prog, false)

	// The printed source (intrinsic form) must re-compile...
	prog2, err := Compile(out, PollPolicy{}) // polls already materialized
	if err != nil {
		t.Fatalf("re-parse failed: %v\n--- printed ---\n%s", err, out)
	}
	// ...to a program with the same shape.
	if len(prog2.Funcs) != len(prog.Funcs) || len(prog2.Globals) != len(prog.Globals) {
		t.Errorf("shape changed: %d/%d funcs, %d/%d globals",
			len(prog2.Funcs), len(prog.Funcs), len(prog2.Globals), len(prog.Globals))
	}
	if prog2.TI.Digest() != prog.TI.Digest() {
		t.Error("TI digest changed across print/reparse")
	}
	for i, fn := range prog.Funcs {
		fn2 := prog2.Funcs[i]
		if fn.Name != fn2.Name || len(fn.Sites) != len(fn2.Sites) ||
			fn.Migratory != fn2.Migratory {
			t.Errorf("function %s changed: sites %d/%d migratory %v/%v",
				fn.Name, len(fn.Sites), len(fn2.Sites), fn.Migratory, fn2.Migratory)
		}
	}

	// Global initializers print as the expressions they are.
	for _, want := range []string{"int half = ((2147483647 + 1) / 2);", "double inf = (1.5 / 0.0);", "struct node *none = 0;"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed program lacks %q:\n%s", want, out)
		}
	}

	// Printing the re-parsed program must be a fixed point.
	out2 := Format(prog2, false)
	if out != out2 {
		t.Errorf("printing is not idempotent:\n--- first ---\n%s\n--- second ---\n%s", out, out2)
	}
}

func TestFormatMacros(t *testing.T) {
	prog := mustCompile(t, printSource, DefaultPolicy)
	out := Format(prog, true)
	for _, want := range []string{"MIG_POLL(", "_mig_label_", "live:", "/* migratory:"} {
		if !strings.Contains(out, want) {
			t.Errorf("macro output missing %q:\n%s", want, out)
		}
	}
	// Live sets at the for-loop poll must include the loop variable.
	if !strings.Contains(out, "live: i, total") && !strings.Contains(out, "live: i") {
		t.Errorf("live set not rendered:\n%s", out)
	}
}

func TestFormatBehaviorPreserved(t *testing.T) {
	// The printed program must behave identically. (Execution check
	// lives in the vm package tests via golden exit codes; here we
	// compare site lives, which drive migration behavior.)
	prog := mustCompile(t, printSource, DefaultPolicy)
	out := Format(prog, false)
	prog2, err := Compile(out, PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for i, fn := range prog.Funcs {
		if !fn.Migratory {
			continue
		}
		for j, site := range fn.Sites {
			s2 := prog2.Funcs[i].Sites[j]
			if len(site.Live) != len(s2.Live) {
				t.Errorf("%s site %d: live %d vs %d", fn.Name, site.ID, len(site.Live), len(s2.Live))
				continue
			}
			for k := range site.Live {
				if site.Live[k].Name != s2.Live[k].Name {
					t.Errorf("%s site %d live[%d]: %s vs %s",
						fn.Name, site.ID, k, site.Live[k].Name, s2.Live[k].Name)
				}
			}
		}
	}
}

func TestDeclString(t *testing.T) {
	prog := mustCompile(t, `
		struct s { int x; };
		double m[3][4];
		int *p;
		struct s *ps[10];
		char buf[80];
		int main() { return 0; }
	`, PollPolicy{})
	out := Format(prog, false)
	for _, want := range []string{
		"double m[3][4];",
		"int *p;",
		"struct s *ps[10];",
		"char buf[80];",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestQuoteC(t *testing.T) {
	prog := mustCompile(t, `int main() { printf("a\tb\nc\"d\\e"); return 0; }`, PollPolicy{})
	out := Format(prog, false)
	if !strings.Contains(out, `"a\tb\nc\"d\\e"`) {
		t.Errorf("string literal not re-escaped:\n%s", out)
	}
	if _, err := Compile(out, PollPolicy{}); err != nil {
		t.Errorf("escaped output does not re-parse: %v", err)
	}
}
