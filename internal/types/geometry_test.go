package types

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/arch"
)

// offsetOrPanic runs an ordinal-to-offset conversion and reports a panic as
// a value, so the plan and the type graph can be held to the same panics.
func offsetOrPanic(f func() int) (off int, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return f(), false
}

// checkGeometry holds the plan's geometry to the type graph's on machine m:
// every offset in [-1, SizeOf+1] and every ordinal in [-1, ScalarCount+1].
func checkGeometry(t testing.TB, ty *Type, m *arch.Machine) {
	t.Helper()
	p := ty.Plan(m)
	for off := -1; off <= ty.SizeOf(m)+1; off++ {
		wantOrd, wantOK := ty.OffsetToOrdinal(m, off)
		gotOrd, gotOK := p.OffsetToOrdinal(off)
		if gotOK != wantOK || gotOK && gotOrd != wantOrd { // not found carries no ordinal
			t.Fatalf("%s on %s: offset %d -> plan (%d, %v), type graph (%d, %v)",
				ty.Definition(), m.Name, off, gotOrd, gotOK, wantOrd, wantOK)
		}
	}
	for ord := -1; ord <= ty.ScalarCount()+1; ord++ {
		want, wantPanic := offsetOrPanic(func() int { return ty.OrdinalToOffset(m, ord) })
		got, gotPanic := offsetOrPanic(func() int { return p.OrdinalToOffset(ord) })
		if got != want || gotPanic != wantPanic {
			t.Fatalf("%s on %s: ordinal %d -> plan (%d, panic %v), type graph (%d, panic %v)",
				ty.Definition(), m.Name, ord, got, gotPanic, want, wantPanic)
		}
	}
}

func TestPlanGeometryMatchesTypeGraph(t *testing.T) {
	st := func(tag string, fields ...*Type) *Type {
		s := NewStruct(tag)
		fs := make([]Field, len(fields))
		for i, f := range fields {
			fs[i] = Field{Name: fmt.Sprintf("f%d", i), Type: f}
		}
		s.DefineFields(fs)
		return s
	}
	node := nodeType("geonode")
	inner := st("geoinner", Char, Double, Short) // interior and trailing padding
	cases := []*Type{
		Char, Long, PointerTo(node), node,
		st("geolead", Char, Long),             // padding right after the first field
		st("geotail", Double, Char),           // trailing padding
		st("geomid", Short, Char, Int, Char),  // interior padding, twice
		st("geonest", Char, inner, Char),      // nested struct with its own padding
		ArrayOf(inner, 5),                     // array of structs
		st("geoarr", Char, ArrayOf(inner, 3)), // array of structs inside a struct
		ArrayOf(PointerTo(node), 7),           // pointer array
		st("geoptrs", ArrayOf(PointerTo(Int), 3), Char, PointerTo(node)),
		ArrayOf(ArrayOf(Short, 3), 4),            // nested arrays
		ArrayOf(inner, 100),                      // unrolled past the expansion limit: a repetition op
		st("geobig", Char, ArrayOf(Double, 600)), // past the flat-table size: the type graph answers
	}
	for _, m := range arch.Machines() {
		for _, ty := range cases {
			checkGeometry(t, ty, m)
		}
	}
	if big := cases[len(cases)-1].Plan(arch.Ultra5); big.ordAt != nil || big.ElemSize <= flatGeometry {
		t.Errorf("geobig (%d bytes) was expected past the flat-table size %d", big.ElemSize, flatGeometry)
	}
	if small := node.Plan(arch.Ultra5); small.ordAt == nil {
		t.Error("an ordinary struct carries no geometry table")
	}
}

// shapeFromBytes builds a struct type from fuzz input: each byte adds a
// field — a primitive, a pointer, a short array of either, or (depth
// permitting) a nested struct built from the bytes that follow.
func shapeFromBytes(data []byte, depth int, tag *int) (*Type, []byte) {
	prims := []*Type{Char, UChar, Short, UShort, Int, UInt, Long, ULong, Float, Double}
	*tag++
	s := NewStruct(fmt.Sprintf("fuzz%d", *tag))
	var fields []Field
	for len(data) > 0 && len(fields) < 8 {
		b := data[0]
		data = data[1:]
		var ft *Type
		switch sel := b % 16; {
		case sel < 10:
			ft = prims[sel]
		case sel == 10:
			ft = PointerTo(prims[int(b>>4)%len(prims)])
		case sel == 11 && depth < 3:
			ft, data = shapeFromBytes(data, depth+1, tag)
		case sel == 12: // end of this struct
			s.DefineFields(named(fields))
			return s, data
		default:
			ft = ArrayOf(prims[int(b>>4)%len(prims)], 1+int(b>>4)%5)
		}
		fields = append(fields, Field{Type: ft})
	}
	s.DefineFields(named(fields))
	return s, data
}

func named(fields []Field) []Field {
	for i := range fields {
		fields[i].Name = fmt.Sprintf("f%d", i)
	}
	return fields
}

// FuzzPlanGeometry holds the plan's geometry tables to the type-graph
// recursion on generated struct shapes, on every machine.
func FuzzPlanGeometry(f *testing.F) {
	f.Add([]byte{0, 6, 2})               // char, long, short
	f.Add([]byte{9, 0, 11, 0, 9, 12, 2}) // nested struct
	f.Add([]byte{13, 10, 0, 0x5d, 11, 11, 4, 12, 12, 1})
	tag := 0
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		ty, _ := shapeFromBytes(data, 0, &tag)
		if ty.ScalarCount() == 0 {
			return // an empty struct has no plan worth asking
		}
		for _, m := range arch.Machines() {
			checkGeometry(t, ArrayOf(ty, 2), m)
		}
	})
}

// geometryAnswers is everything a type's geometry answers on one machine,
// in an order a goroutine can compare as a whole.
func geometryAnswers(ty *Type, m *arch.Machine) []int {
	p := ty.Plan(m)
	out := []int{ty.SizeOf(m), ty.AlignOf(m), ty.ScalarCount(), p.ElemSize, p.NumScalars, p.WireMin, len(p.Ops)}
	if s := ty.Elem; ty.Kind == KArray && s.Kind == KStruct {
		for i := range s.Fields {
			out = append(out, s.OffsetOf(m, i))
		}
	}
	return out
}

// TestGeometryConcurrentReads queries fresh struct and array types from
// eight goroutines at once, on two machines whose layouts differ, while
// their geometry, scalar counts and plans are first computed and
// published. Every answer must equal the one a serial twin of the same
// shape gives, and every goroutine must be handed the one cached plan.
// Run under -race.
func TestGeometryConcurrentReads(t *testing.T) {
	machines := []*arch.Machine{arch.I386, arch.AMD64}
	rng := rand.New(rand.NewSource(1))
	tag := 0
	for round := 0; round < 40; round++ {
		data := make([]byte, 24)
		rng.Read(data)
		twin, _ := shapeFromBytes(data, 0, &tag)
		shape, _ := shapeFromBytes(data, 0, &tag)
		serial, fresh := ArrayOf(twin, 3), ArrayOf(shape, 3)
		var want [][]int
		for _, m := range machines {
			want = append(want, geometryAnswers(serial, m))
		}
		plans := make([][]*Plan, 8)
		var wg sync.WaitGroup
		for g := range plans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range machines {
					i = (i + g) % len(machines) // half start on each machine
					if got := geometryAnswers(fresh, machines[i]); !slices.Equal(got, want[i]) {
						t.Errorf("round %d, %s on %s: %v, serially %v", round, fresh.Definition(), machines[i].Name, got, want[i])
					}
					plans[g] = append(plans[g], fresh.Plan(machines[i]))
				}
			}()
		}
		wg.Wait()
		for g := range plans {
			for _, p := range plans[g] {
				if p != fresh.Plan(p.Mach) {
					t.Fatalf("round %d: goroutine %d was handed a plan on %s that is not the cached one", round, g, p.Mach.Name)
				}
			}
		}
	}
}
