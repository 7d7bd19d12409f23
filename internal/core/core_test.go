package core

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/minic"
	"repro/internal/vm"
)

const countdownSrc = `
	int main() {
		int i, s;
		s = 0;
		for (i = 0; i < 50; i++) {
			s += i;
		}
		return s % 97;
	}
`

// listSrc builds a 60-node heap list and only then reaches its single
// migration point.
const listSrc = `
	struct node { float data; struct node *link; };
	struct node *head;
	int main() {
		int i, sum;
		struct node *c;
		head = 0;
		for (i = 1; i <= 60; i++) {
			c = (struct node *) malloc(sizeof(struct node));
			c->data = i;
			c->link = head;
			head = c;
		}
		migrate_here();
		sum = 0;
		c = head;
		while (c) {
			sum += (int)c->data;
			c = c->link;
		}
		return sum % 128;
	}
`

// nestedSrc migrates from inside a called function's loop, so the state
// holds two frames.
const nestedSrc = `
	struct node { int val; struct node *next; };
	int sum_list(struct node *h) {
		int s;
		s = 0;
		while (h) {
			s = s + h->val;
			h = h->next;
			migrate_here();
		}
		return s;
	}
	int main() {
		struct node *head, *n;
		int i, total;
		head = 0;
		for (i = 0; i < 40; i++) {
			n = (struct node *) malloc(sizeof(struct node));
			n->val = i * 3;
			n->next = head;
			head = n;
		}
		total = sum_list(head);
		return total % 100;
	}
`

// stoppedAtMigration runs the program on m until the immediately pending
// migration request is granted and returns the stopped process.
func stoppedAtMigration(t testing.TB, e *Engine, m *arch.Machine) *vm.Process {
	t.Helper()
	p, err := e.NewProcess(m)
	if err != nil {
		t.Fatal(err)
	}
	p.MaxSteps = 1_000_000
	var req Request
	req.Raise()
	p.PollHook = req.Hook()
	res, err := p.Run()
	if err != nil || !res.Migrated {
		t.Fatalf("setup: migrated=%v err=%v", res != nil && res.Migrated, err)
	}
	return p
}

func TestEngineCompileError(t *testing.T) {
	if _, err := NewEngine(`int main() { return x; }`, minic.DefaultPolicy); err == nil {
		t.Error("compile error not reported")
	}
}

func TestRequestFlag(t *testing.T) {
	var r Request
	hook := r.Hook()
	if hook(nil, nil) {
		t.Error("hook granted a request never raised")
	}
	r.Raise()
	if !hook(nil, nil) {
		t.Error("hook did not grant pending request")
	}
	if hook(nil, nil) {
		t.Error("request not consumed")
	}
}

func TestTimingString(t *testing.T) {
	s := Timing{Bytes: 42}.String()
	if !strings.Contains(s, "42 bytes") {
		t.Errorf("timing string = %q", s)
	}
}

func TestDigestCachedAndStable(t *testing.T) {
	e, err := NewEngine(countdownSrc, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	d := e.Digest()
	if d == 0 {
		t.Error("zero digest")
	}
	if e.Digest() != d {
		t.Error("digest changed between calls")
	}
	// The same source compiles to the same digest on another node (the
	// pre-distribution invariant the session handshake relies on) ...
	e2, err := NewEngine(countdownSrc, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Digest() != d {
		t.Error("same program, different digest")
	}
	// ... and a different program differs.
	e3, err := NewEngine(`int main() { return 1; }`, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	if e3.Digest() == d {
		t.Error("different program, same digest")
	}
}
