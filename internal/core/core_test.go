package core

import (
	"strings"
	"testing"

	"repro/internal/minic"
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

func TestEngineCompileError(t *testing.T) {
	if _, err := NewEngine(`int main() { return x; }`, minic.DefaultPolicy); err == nil {
		t.Error("compile error not reported")
	}
}

func TestRequestFlag(t *testing.T) {
	var r Request
	if r.Pending() {
		t.Error("new request pending")
	}
	r.Raise()
	if !r.Pending() {
		t.Error("raised request not pending")
	}
	hook := r.Hook()
	if !hook(nil, nil) {
		t.Error("hook did not grant pending request")
	}
	if r.Pending() || hook(nil, nil) {
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
