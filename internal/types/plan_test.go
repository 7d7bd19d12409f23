package types

import (
	"testing"

	"repro/internal/arch"
)

// planShape flattens a plan into a machine-independent shape string used to
// verify that the same type compiles to structurally identical plans on
// every machine.
func planShape(ops []PlanOp) []struct {
	kind  arch.PrimKind
	count int
	sub   int
} {
	var out []struct {
		kind  arch.PrimKind
		count int
		sub   int
	}
	for _, op := range ops {
		out = append(out, struct {
			kind  arch.PrimKind
			count int
			sub   int
		}{op.Kind, op.Count, len(op.Sub)})
		if op.Sub != nil {
			out = append(out, planShape(op.Sub)...)
		}
	}
	return out
}

func TestPlanPrim(t *testing.T) {
	p := NewPlan(Double, arch.Ultra5)
	if len(p.Ops) != 1 || p.Ops[0].Kind != arch.Double || p.Ops[0].Count != 1 {
		t.Fatalf("plan = %+v", p.Ops)
	}
	if p.HasPtr {
		t.Error("double plan should have no pointers")
	}
}

func TestPlanBigMatrixMergesToOneOp(t *testing.T) {
	// double[1000][1000] must compile to a single run of 1e6 doubles —
	// the hot path for the linpack experiments.
	mat := ArrayOf(ArrayOf(Double, 1000), 1000)
	p := NewPlan(mat, arch.Ultra5)
	if len(p.Ops) != 1 {
		t.Fatalf("matrix plan has %d ops, want 1", len(p.Ops))
	}
	op := p.Ops[0]
	if op.Kind != arch.Double || op.Count != 1000*1000 || op.Stride != 8 {
		t.Errorf("matrix op = %+v", op)
	}
}

func TestPlanPointerArray(t *testing.T) {
	// struct node *parray[10] — the example program's array of pointers.
	n := nodeType("node")
	arr := ArrayOf(PointerTo(n), 10)
	p := NewPlan(arr, arch.DEC5000)
	if len(p.Ops) != 1 {
		t.Fatalf("plan has %d ops, want 1", len(p.Ops))
	}
	op := p.Ops[0]
	if op.Kind != arch.Ptr || op.Count != 10 || op.PtrElem != n {
		t.Errorf("op = %+v", op)
	}
	if !p.HasPtr {
		t.Error("HasPtr should be true")
	}
}

func TestPlanStructOpsFollowOffsets(t *testing.T) {
	n := nodeType("node")
	for _, m := range []*arch.Machine{arch.DEC5000, arch.AMD64} {
		p := NewPlan(n, m)
		if len(p.Ops) != 2 {
			t.Fatalf("%s: node plan has %d ops", m.Name, len(p.Ops))
		}
		if p.Ops[0].Kind != arch.Float || p.Ops[0].Off != 0 {
			t.Errorf("%s: op0 = %+v", m.Name, p.Ops[0])
		}
		if p.Ops[1].Kind != arch.Ptr || p.Ops[1].Off != n.OffsetOf(m, 1) {
			t.Errorf("%s: op1 = %+v", m.Name, p.Ops[1])
		}
	}
}

func TestPlanShapeMachineIndependent(t *testing.T) {
	// The wire format depends on the operation sequence being identical
	// on all machines. Verify for a menagerie of types.
	n := nodeType("node")
	mixed := NewStruct("mixed")
	mixed.DefineFields([]Field{
		{"c", Char},
		{"d", Double},
		{"nodes", ArrayOf(n, 4)},
		{"name", ArrayOf(Char, 13)},
		{"next", PointerTo(mixed)},
	})
	huge := ArrayOf(mixed, 100) // beyond expandLimit: must use repetition
	typesToTest := []*Type{Int, n, mixed, huge, ArrayOf(PointerTo(Int), 3),
		ArrayOf(ArrayOf(Float, 8), 8)}

	ms := arch.Machines()
	for _, ty := range typesToTest {
		ref := planShape(NewPlan(ty, ms[0]).Ops)
		for _, m := range ms[1:] {
			got := planShape(NewPlan(ty, m).Ops)
			if len(got) != len(ref) {
				t.Fatalf("%s: plan shape length differs between %s and %s", ty, ms[0].Name, m.Name)
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Errorf("%s: op %d shape differs between %s (%+v) and %s (%+v)",
						ty, i, ms[0].Name, ref[i], m.Name, got[i])
				}
			}
		}
	}
}

// TestFixtureScalarRunsArePacked holds the layout fixtures to the packed-run
// invariant on every machine (the workload programs are checked from the
// external tests).
func TestFixtureScalarRunsArePacked(t *testing.T) {
	n := nodeType("node")
	mixed := NewStruct("mixed")
	mixed.DefineFields([]Field{
		{"c", Char}, {"s", Short}, {"l", Long}, {"ul", ULong}, {"d", Double},
		{"nodes", ArrayOf(n, 4)}, {"name", ArrayOf(Char, 13)}, {"next", PointerTo(mixed)},
	})
	fixtures := []*Type{Char, UChar, Short, UShort, Int, UInt, Long, ULong, Float, Double,
		PrimType(arch.LongLong), PrimType(arch.ULongLong), n, mixed, ArrayOf(mixed, 100),
		ArrayOf(PointerTo(Int), 3), ArrayOf(ArrayOf(Float, 8), 8), ArrayOf(ArrayOf(Double, 1000), 1000)}
	for _, ty := range fixtures {
		for _, m := range arch.Machines() {
			CheckPackedRuns(t, ty, m)
		}
	}
}

func TestPlanRepetitionForLargeAggregates(t *testing.T) {
	n := nodeType("node")
	big := ArrayOf(n, 1000) // 2000 ops if expanded; must be a repetition
	p := NewPlan(big, arch.Ultra5)
	if len(p.Ops) != 1 || p.Ops[0].Sub == nil {
		t.Fatalf("large aggregate plan not a repetition: %d ops", len(p.Ops))
	}
	if p.Ops[0].Count != 1000 || p.Ops[0].Stride != n.SizeOf(arch.Ultra5) {
		t.Errorf("repetition op = %+v", p.Ops[0])
	}
	if !p.HasPtr {
		t.Error("repetition should propagate HasPtr")
	}
}

func TestPlanSmallAggregateExpands(t *testing.T) {
	n := nodeType("node")
	small := ArrayOf(n, 5)
	p := NewPlan(small, arch.Ultra5)
	if len(p.Ops) != 10 {
		t.Fatalf("small aggregate plan has %d ops, want 10 expanded", len(p.Ops))
	}
	for i := 0; i < 10; i += 2 {
		if p.Ops[i].Kind != arch.Float || p.Ops[i+1].Kind != arch.Ptr {
			t.Errorf("ops %d,%d = %+v %+v", i, i+1, p.Ops[i], p.Ops[i+1])
		}
	}
}

func TestPlanCoversAllScalars(t *testing.T) {
	// Property: the scalar count covered by the plan equals the type's
	// scalar count, and every scalar byte range is within the type.
	n := nodeType("node")
	mixed := NewStruct("mix2")
	mixed.DefineFields([]Field{
		{"a", ArrayOf(Short, 3)},
		{"b", Double},
		{"n", ArrayOf(n, 70)}, // forces a repetition inside a struct
	})
	for _, m := range arch.Machines() {
		for _, ty := range []*Type{n, mixed, ArrayOf(mixed, 3)} {
			p := NewPlan(ty, m)
			covered := 0
			var walk func(ops []PlanOp, base int)
			walk = func(ops []PlanOp, base int) {
				for _, op := range ops {
					if op.Sub != nil {
						for i := 0; i < op.Count; i++ {
							walk(op.Sub, base+op.Off+i*op.Stride)
						}
						continue
					}
					for i := 0; i < op.Count; i++ {
						off := base + op.Off + i*op.Stride
						size := m.SizeOf(op.Kind)
						if off < 0 || off+size > ty.SizeOf(m) {
							t.Fatalf("%s on %s: scalar at %d outside type of size %d",
								ty, m.Name, off, ty.SizeOf(m))
						}
						covered++
					}
				}
			}
			walk(p.Ops, 0)
			if covered != ty.ScalarCount() {
				t.Errorf("%s on %s: plan covers %d scalars, type has %d",
					ty, m.Name, covered, ty.ScalarCount())
			}
		}
	}
}

func TestTITable(t *testing.T) {
	ti := NewTI()
	n := nodeType("node")
	i1 := ti.Add(PointerTo(n))
	// Transitive registration must have added node and float.
	if _, ok := ti.Index(n); !ok {
		t.Error("struct not transitively registered")
	}
	if _, ok := ti.Index(Float); !ok {
		t.Error("field type not transitively registered")
	}
	if i2 := ti.Add(PointerTo(n)); i2 != i1 {
		t.Error("re-adding changed index")
	}
	got, err := ti.At(i1)
	if err != nil || got != PointerTo(n) {
		t.Errorf("At(%d) = %v, %v", i1, got, err)
	}
	if _, err := ti.At(99); err == nil {
		t.Error("At out of range did not error")
	}
	if _, ok := ti.Index(n); !ok {
		t.Error("Index did not find a registered type")
	}
}

func TestTIDigestAgreesAcrossIdenticalPrograms(t *testing.T) {
	build := func() *TI {
		ti := NewTI()
		n := nodeType("node")
		ti.Add(PointerTo(n))
		ti.Add(ArrayOf(Double, 100))
		return ti
	}
	a, b := build(), build()
	if a.Digest() != b.Digest() {
		t.Error("identical programs produced different TI digests")
	}
	c := NewTI()
	c.Add(ArrayOf(Double, 100))
	if c.Digest() == a.Digest() {
		t.Error("different programs produced the same TI digest")
	}
}

func TestPlanCaching(t *testing.T) {
	n := nodeType("node")
	p1 := n.Plan(arch.Ultra5)
	p2 := n.Plan(arch.Ultra5)
	if p1 != p2 {
		t.Error("plans not cached")
	}
	p3 := n.Plan(arch.DEC5000)
	if p3 == p1 || p3.Mach != arch.DEC5000 {
		t.Error("plans must be per machine")
	}
	if n.Plan(arch.Ultra5) != p1 {
		t.Error("a second machine's plan displaced the first")
	}
}

func TestTISummary(t *testing.T) {
	ti := NewTI()
	ti.Add(nodeType("node"))
	s := ti.Summary(arch.Ultra5)
	if len(s) == 0 {
		t.Fatal("empty summary")
	}
}
