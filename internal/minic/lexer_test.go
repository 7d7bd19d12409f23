package minic

import "testing"

func kinds(toks []Token) []TokKind {
	out := make([]TokKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestTokenizeBasic(t *testing.T) {
	toks, err := Tokenize(`int main() { return 42; }`)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{TokKeyword, TokIdent, TokPunct, TokPunct, TokPunct,
		TokKeyword, TokIntLit, TokPunct, TokPunct, TokEOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("token count = %d, want %d: %v", len(got), len(want), toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d kind = %v, want %v (%s)", i, got[i], want[i], toks[i])
		}
	}
	if toks[6].Int != 42 {
		t.Errorf("literal value = %d", toks[6].Int)
	}
}

func TestTokenizeNumbers(t *testing.T) {
	cases := []struct {
		src     string
		isFloat bool
		i       uint64
		f       float64
	}{
		{"0", false, 0, 0},
		{"123", false, 123, 0},
		{"0x1f", false, 31, 0},
		{"010", false, 8, 0}, // octal
		{"1.5", true, 0, 1.5},
		{"1e3", true, 0, 1000},
		{"2.5e-2", true, 0, 0.025},
		{".5", true, 0, 0.5},
		{"10L", false, 10, 0},
		{"10UL", false, 10, 0},
		{"1.0f", true, 0, 1.0},
		{"3f", true, 0, 3.0},
	}
	for _, c := range cases {
		toks, err := Tokenize(c.src)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		tok := toks[0]
		if c.isFloat {
			if tok.Kind != TokFloatLit || tok.Float != c.f {
				t.Errorf("%q: got %v (%g)", c.src, tok.Kind, tok.Float)
			}
		} else {
			if tok.Kind != TokIntLit || tok.Int != c.i {
				t.Errorf("%q: got %v (%d)", c.src, tok.Kind, tok.Int)
			}
		}
	}
}

func TestTokenizeCharAndString(t *testing.T) {
	toks, err := Tokenize(`'a' '\n' '\0' "hi\tthere" ""`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Int != 'a' || toks[1].Int != '\n' || toks[2].Int != 0 {
		t.Errorf("char literals: %v %v %v", toks[0].Int, toks[1].Int, toks[2].Int)
	}
	if toks[3].Str != "hi\tthere" || toks[4].Str != "" {
		t.Errorf("string literals: %q %q", toks[3].Str, toks[4].Str)
	}
}

func TestTokenizeComments(t *testing.T) {
	toks, err := Tokenize(`
		// line comment
		int /* block
		comment */ x;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 4 { // int, x, ;, EOF
		t.Errorf("tokens = %v", toks)
	}
}

func TestTokenizePunctuationMaximalMunch(t *testing.T) {
	toks, err := Tokenize("a->b ++ -- <<= >= == != && ||")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "->", "b", "++", "--", "<<=", ">=", "==", "!=", "&&", "||"}
	for i, w := range want {
		if toks[i].Kind == TokEOF || (toks[i].Text != w) {
			t.Errorf("token %d = %s, want %q", i, toks[i], w)
		}
	}
}

func TestTokenizeErrors(t *testing.T) {
	for _, src := range []string{
		"/* unterminated",
		"'unterminated",
		`"unterminated`,
		"\"newline\nin string\"",
		"'\\q'", // unsupported escape
		"@",
	} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestPositions(t *testing.T) {
	toks, _ := Tokenize("int\n  x;")
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("first token pos = %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("second token pos = %v", toks[1].Pos)
	}
}

func TestTokenStrings(t *testing.T) {
	toks, err := Tokenize(`name 42 1.5 'q' "s" + if`)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{`"name"`, "integer 42", "float 1.5",
		`character 'q'`, `string "s"`, `"+"`, `"if"`} {
		if got := toks[i].String(); got != want {
			t.Errorf("token %d String = %q, want %q", i, got, want)
		}
	}
	eof := toks[len(toks)-1]
	if eof.String() != "end of file" {
		t.Errorf("EOF string = %q", eof.String())
	}
}
