package types

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

// nodeType builds the paper's example type:
//
//	struct node { float data; struct node *link; };
func nodeType(tag string) *Type {
	n := NewStruct(tag)
	n.DefineFields([]Field{
		{Name: "data", Type: Float},
		{Name: "link", Type: PointerTo(n)},
	})
	return n
}

func TestInterning(t *testing.T) {
	if PointerTo(Int) != PointerTo(Int) {
		t.Error("pointer types not interned")
	}
	if ArrayOf(Double, 10) != ArrayOf(Double, 10) {
		t.Error("array types not interned")
	}
	if ArrayOf(Double, 10) == ArrayOf(Double, 11) {
		t.Error("arrays of different length must differ")
	}
	if NewStruct("s") == NewStruct("s") {
		t.Error("nominal structs must be distinct per declaration")
	}
	if PrimType(arch.Int) != Int {
		t.Error("prim singletons not shared")
	}
}

func TestStringSpellings(t *testing.T) {
	n := nodeType("node")
	cases := []struct {
		t    *Type
		want string
	}{
		{Int, "int"},
		{PointerTo(Int), "int*"},
		{ArrayOf(Int, 4), "int[4]"},
		{PointerTo(ArrayOf(Int, 10)), "int[10]*"},
		{n, "struct node"},
		{PointerTo(n), "struct node*"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestPrimLayout(t *testing.T) {
	for _, m := range arch.Machines() {
		if Int.SizeOf(m) != 4 || Double.SizeOf(m) != 8 {
			t.Errorf("%s: primitive sizes wrong", m.Name)
		}
		if got := PointerTo(Int).SizeOf(m); got != m.PtrSize() {
			t.Errorf("%s: pointer size %d", m.Name, got)
		}
	}
}

func TestStructLayoutPadding(t *testing.T) {
	// struct { char c; double d; } — padding depends on double alignment.
	s := NewStruct("cd")
	s.DefineFields([]Field{{"c", Char}, {"d", Double}})

	if got := s.SizeOf(arch.Ultra5); got != 16 {
		t.Errorf("ultra5 size = %d, want 16", got)
	}
	if got := s.OffsetOf(arch.Ultra5, 1); got != 8 {
		t.Errorf("ultra5 offset of d = %d, want 8", got)
	}
	// i386 aligns double to 4, so the layout genuinely differs.
	if got := s.SizeOf(arch.I386); got != 12 {
		t.Errorf("i386 size = %d, want 12", got)
	}
	if got := s.OffsetOf(arch.I386, 1); got != 4 {
		t.Errorf("i386 offset of d = %d, want 4", got)
	}
}

func TestStructTailPadding(t *testing.T) {
	// struct { double d; char c; } must round its size up to alignment.
	s := NewStruct("dc")
	s.DefineFields([]Field{{"d", Double}, {"c", Char}})
	if got := s.SizeOf(arch.SPARC20); got != 16 {
		t.Errorf("size with tail padding = %d, want 16", got)
	}
}

func TestRecursiveStructLayout(t *testing.T) {
	n := nodeType("node")
	// On ILP32: float(4) + ptr(4) = 8. On LP64: float(4) pad(4) ptr(8) = 16.
	if got := n.SizeOf(arch.DEC5000); got != 8 {
		t.Errorf("ILP32 node size = %d, want 8", got)
	}
	if got := n.SizeOf(arch.AMD64); got != 16 {
		t.Errorf("LP64 node size = %d, want 16", got)
	}
	if n.ScalarCount() != 2 {
		t.Errorf("node scalar count = %d, want 2", n.ScalarCount())
	}
}

func TestScalarCount(t *testing.T) {
	n := nodeType("node")
	cases := []struct {
		t    *Type
		want int
	}{
		{Int, 1},
		{PointerTo(Int), 1},
		{ArrayOf(Int, 10), 10},
		{ArrayOf(ArrayOf(Double, 3), 4), 12},
		{n, 2},
		{ArrayOf(n, 5), 10},
		{ArrayOf(PointerTo(n), 10), 10},
	}
	for _, c := range cases {
		if got := c.t.ScalarCount(); got != c.want {
			t.Errorf("%s: scalar count = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestOrdinalOffsetRoundTrip(t *testing.T) {
	n := nodeType("node")
	mixed := NewStruct("mixed")
	mixed.DefineFields([]Field{
		{"c", Char},
		{"arr", ArrayOf(n, 3)},
		{"p", PointerTo(Double)},
		{"m", ArrayOf(Char, 5)},
	})
	typesToTest := []*Type{
		Int, Double, PointerTo(Int),
		ArrayOf(Double, 7), ArrayOf(ArrayOf(Int, 2), 3),
		n, ArrayOf(n, 4), mixed, ArrayOf(mixed, 2),
	}
	for _, m := range arch.Machines() {
		for _, ty := range typesToTest {
			count := ty.ScalarCount()
			for ord := 0; ord <= count; ord++ {
				off := ty.OrdinalToOffset(m, ord)
				back, ok := ty.OffsetToOrdinal(m, off)
				if !ok || back != ord {
					t.Errorf("%s on %s: ordinal %d -> offset %d -> ordinal %d (ok=%v)",
						ty, m.Name, ord, off, back, ok)
				}
			}
		}
	}
}

func TestOffsetToOrdinalPadding(t *testing.T) {
	// Offsets inside padding must be rejected.
	s := NewStruct("padded")
	s.DefineFields([]Field{{"c", Char}, {"d", Double}})
	m := arch.Ultra5 // layout: c at 0, 7 bytes padding, d at 8
	if _, ok := s.OffsetToOrdinal(m, 4); ok {
		t.Error("offset in padding resolved to an ordinal")
	}
	if ord, ok := s.OffsetToOrdinal(m, 8); !ok || ord != 1 {
		t.Errorf("offset 8 = ordinal %d, ok=%v; want 1", ord, ok)
	}
	if _, ok := s.OffsetToOrdinal(m, 100); ok {
		t.Error("offset beyond type resolved")
	}
}

func TestOrdinalCrossMachineAgreement(t *testing.T) {
	// The defining property of the paper's pointer encoding: the ordinal
	// of a scalar is the same on every machine, even when byte offsets
	// differ. Convert offset->ordinal on one machine and ordinal->offset
	// on another; the scalar reached must be the same element.
	s := NewStruct("xm")
	s.DefineFields([]Field{{"c", Char}, {"d", Double}, {"p", PointerTo(Int)}, {"a", ArrayOf(Short, 3)}})
	src, dst := arch.I386, arch.SPARCV9
	for ord := 0; ord < s.ScalarCount(); ord++ {
		offSrc := s.OrdinalToOffset(src, ord)
		ordBack, ok := s.OffsetToOrdinal(src, offSrc)
		if !ok || ordBack != ord {
			t.Fatalf("source round trip failed at %d", ord)
		}
		offDst := s.OrdinalToOffset(dst, ord)
		if s.ScalarType(ord) != s.ScalarType(ordBack) {
			t.Fatalf("scalar type mismatch at ordinal %d", ord)
		}
		_ = offDst // offsets legitimately differ; ordinals must not
	}
	if s.SizeOf(src) == s.SizeOf(dst) {
		t.Log("warning: test machines produced identical sizes; cross-machine check weak")
	}
}

func TestScalarType(t *testing.T) {
	n := nodeType("node")
	if n.ScalarType(0) != Float {
		t.Error("scalar 0 of node should be float")
	}
	if n.ScalarType(1) != PointerTo(n) {
		t.Error("scalar 1 of node should be node*")
	}
	a := ArrayOf(n, 3)
	if a.ScalarType(4) != Float {
		t.Error("scalar 4 of node[3] should be float")
	}
	if a.ScalarType(5) != PointerTo(n) {
		t.Error("scalar 5 of node[3] should be node*")
	}
}

func TestHasPointer(t *testing.T) {
	n := nodeType("node")
	cases := []struct {
		t    *Type
		want bool
	}{
		{Int, false},
		{ArrayOf(Double, 100), false},
		{PointerTo(Int), true},
		{n, true},
		{ArrayOf(n, 2), true},
	}
	for _, c := range cases {
		if got := c.t.HasPointer(); got != c.want {
			t.Errorf("%s: HasPointer = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestOrdinalQuick(t *testing.T) {
	n := nodeType("node")
	big := NewStruct("big")
	big.DefineFields([]Field{
		{"a", ArrayOf(n, 7)},
		{"b", Char},
		{"c", ArrayOf(Double, 9)},
		{"d", PointerTo(big)},
	})
	machines := arch.Machines()
	f := func(ordRaw uint16, mi uint8) bool {
		m := machines[int(mi)%len(machines)]
		ord := int(ordRaw) % (big.ScalarCount() + 1)
		off := big.OrdinalToOffset(m, ord)
		back, ok := big.OffsetToOrdinal(m, off)
		return ok && back == ord
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIncompleteStructPanics(t *testing.T) {
	s := NewStruct("inc")
	defer func() {
		if recover() == nil {
			t.Error("layout of incomplete struct did not panic")
		}
	}()
	s.SizeOf(arch.Ultra5)
}

func TestPredicates(t *testing.T) {
	if !Int.IsArithmetic() || !Int.IsInteger() || Int.IsFloat() || Int.IsPointer() {
		t.Error("Int predicates")
	}
	if !Double.IsFloat() || !Double.IsArithmetic() {
		t.Error("Double predicates")
	}
	if !PointerTo(Void).IsPointer() {
		t.Error("pointer predicate")
	}
	if !Void.IsVoid() || Int.IsVoid() {
		t.Error("void predicate")
	}
}

func TestTILenAndTypes(t *testing.T) {
	ti := NewTI()
	n := nodeType("lenNode")
	ti.Add(PointerTo(n))
	if ti.Len() != 3 { // ptr, node, float
		t.Errorf("Len = %d", ti.Len())
	}
	if first, err := ti.At(0); err != nil || first != PointerTo(n) {
		t.Errorf("At(0) = %v, %v", first, err)
	}
}

func TestCompleteAndFieldIndex(t *testing.T) {
	s := NewStruct("cfi")
	if s.Complete() {
		t.Error("new struct reports complete")
	}
	if !Int.Complete() {
		t.Error("primitive reports incomplete")
	}
	s.DefineFields([]Field{{"a", Int}, {"b", Double}})
	if !s.Complete() {
		t.Error("defined struct reports incomplete")
	}
	if s.FieldIndex("b") != 1 || s.FieldIndex("z") != -1 {
		t.Error("FieldIndex wrong")
	}
}

func TestDefineFieldsPanics(t *testing.T) {
	s := NewStruct("dfp")
	s.DefineFields([]Field{{"a", Int}})
	assertPanics(t, "redefinition", func() { s.DefineFields([]Field{{"b", Int}}) })
	assertPanics(t, "non-struct", func() { Int.DefineFields(nil) })
	assertPanics(t, "OffsetOf on non-struct", func() { Int.OffsetOf(arch.Ultra5, 0) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestSignatureAndDefinitionSpellings(t *testing.T) {
	n := nodeType("sigNode")
	if got := n.Signature(); got != "struct:sigNode" {
		t.Errorf("struct signature = %q", got)
	}
	if got := ArrayOf(PointerTo(Int), 4).Signature(); got != "[4]*int" {
		t.Errorf("array signature = %q", got)
	}
	def := n.Definition()
	if def != "struct sigNode{data float;link *struct:sigNode;}" {
		t.Errorf("definition = %q", def)
	}
	if Int.Definition() != "int" {
		t.Errorf("prim definition = %q", Int.Definition())
	}
}
