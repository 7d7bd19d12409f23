package types

import (
	"fmt"

	"repro/internal/arch"
)

// This file compiles the type-specific memory block saving and restoring
// functions of the paper's TI table. Rather than interpreting the type
// graph on every save, registering a type compiles it once per machine into
// a Plan: a flat program of operations over the block's bytes. The save and
// restore sides execute the same plan, so the operation sequence — and
// therefore the wire format — is identical on both machines even though the
// byte offsets and strides inside each operation are machine-specific.

// PlanOp is one step of a save/restore plan. Exactly one of two forms is
// used:
//
//   - scalar run: Sub == nil. Count scalars of kind Kind, the i-th at byte
//     offset Off + i*Stride. PtrElem is the pointee type when Kind is Ptr.
//   - repetition: Sub != nil. The sub-plan applied Count times, the i-th
//     iteration based at Off + i*Stride.
//
// A scalar run is always packed: Stride == the machine size of Kind, so
// the run covers one contiguous span of Count*Stride bytes. Conv is how
// that span converts to and from the wire, decided here once per
// (type, machine) instead of per element at save time.
type PlanOp struct {
	Off     int
	Stride  int
	Count   int
	Kind    arch.PrimKind
	Conv    Conv
	PtrElem *Type
	Sub     []PlanOp
}

// Conv is the conversion class of a non-pointer scalar run: what it takes
// to turn the machine's bytes into the canonical big-endian wire form and
// back. Only long and unsigned long change width between machines; every
// other kind differs in byte order alone.
type Conv uint8

const (
	// ConvNone marks pointer runs and repetitions (no bulk conversion).
	ConvNone Conv = iota
	// ConvCopy: the machine bytes already are the wire bytes — one-byte
	// kinds anywhere, any same-width kind on a big-endian machine.
	ConvCopy
	// ConvSwap16, ConvSwap32, ConvSwap64: same width, little-endian machine.
	ConvSwap16
	ConvSwap32
	ConvSwap64
	// ConvLong32 and ConvULong32: a 4-byte long in either byte order
	// against the 8-byte wire form; saving sign- or zero-extends,
	// restoring keeps the low 32 bits.
	ConvLong32
	ConvULong32
)

// WireSize returns the canonical (machine-independent) encoded width of a
// non-pointer scalar kind.
func WireSize(k arch.PrimKind) int {
	switch k {
	case arch.Char, arch.UChar:
		return 1
	case arch.Short, arch.UShort:
		return 2
	case arch.Int, arch.UInt, arch.Float:
		return 4
	case arch.Long, arch.ULong, arch.LongLong, arch.ULongLong, arch.Double:
		return 8
	}
	panic(fmt.Sprintf("types: no wire size for %s", k))
}

// convFor classifies a scalar run of kind k on machine m.
func convFor(k arch.PrimKind, m *arch.Machine) Conv {
	if k == arch.Ptr {
		return ConvNone
	}
	size, ws := m.SizeOf(k), WireSize(k)
	switch {
	case size == 4 && ws == 8 && k == arch.Long:
		return ConvLong32
	case size == 4 && ws == 8 && k == arch.ULong:
		return ConvULong32
	case size != ws:
		panic(fmt.Sprintf("types: no conversion for %d-byte %s on %s", size, k, m.Name))
	case size == 1 || m.Order == arch.BigEndian:
		return ConvCopy
	case size == 2:
		return ConvSwap16
	case size == 4:
		return ConvSwap32
	}
	return ConvSwap64
}

// Plan is the compiled save/restore program for one type on one machine.
type Plan struct {
	Type *Type
	Mach *arch.Machine
	Ops  []PlanOp

	// ElemSize is Type.SizeOf(Mach), carried here so per-block loops do
	// not go back through the layout cache and its lock.
	ElemSize int

	// NumScalars is the total scalar count covered (machine-independent).
	NumScalars int
	// HasPtr records whether any operation is a pointer run.
	HasPtr bool
}

// expandLimit bounds plan expansion for arrays of aggregates: beyond this
// many operations the compiler emits a repetition instead of unrolling.
const expandLimit = 64

// packedRun reports whether t flattens to a single homogeneous run of
// scalars with no padding: a primitive, a pointer, or a (nested) array of
// such. The decision depends only on type structure, never on the machine,
// which keeps plan shapes identical across machines. The returned count is
// the scalar count; elem is the pointee type for pointer runs.
func packedRun(t *Type) (kind arch.PrimKind, count int, elem *Type, ok bool) {
	switch t.Kind {
	case KPrim:
		if t.Prim == arch.Void {
			return 0, 0, nil, false
		}
		return t.Prim, 1, nil, true
	case KPointer:
		return arch.Ptr, 1, t.Elem, true
	case KArray:
		k, c, e, inner := packedRun(t.Elem)
		if !inner {
			return 0, 0, nil, false
		}
		return k, c * t.Len, e, true
	}
	return 0, 0, nil, false
}

// compilePlan builds the operation list for t on m.
func compilePlan(t *Type, m *arch.Machine) []PlanOp {
	if k, c, e, ok := packedRun(t); ok {
		return []PlanOp{{
			Off:     0,
			Stride:  m.SizeOf(k),
			Count:   c,
			Kind:    k,
			Conv:    convFor(k, m),
			PtrElem: e,
		}}
	}
	switch t.Kind {
	case KArray:
		sub := compilePlan(t.Elem, m)
		if t.Len*len(sub) <= expandLimit {
			var ops []PlanOp
			for i := 0; i < t.Len; i++ {
				base := i * t.Elem.SizeOf(m)
				for _, op := range sub {
					op.Off += base
					ops = append(ops, op)
				}
			}
			return ops
		}
		return []PlanOp{{
			Off:    0,
			Stride: t.Elem.SizeOf(m),
			Count:  t.Len,
			Sub:    sub,
		}}
	case KStruct:
		var ops []PlanOp
		for i, f := range t.Fields {
			base := t.OffsetOf(m, i)
			for _, op := range compilePlan(f.Type, m) {
				op.Off += base
				ops = append(ops, op)
			}
		}
		return ops
	}
	panic(fmt.Sprintf("types: cannot compile plan for %s", t))
}

// planHasPtr scans a compiled plan for pointer runs.
func planHasPtr(ops []PlanOp) bool {
	for _, op := range ops {
		if op.Sub != nil {
			if planHasPtr(op.Sub) {
				return true
			}
		} else if op.Kind == arch.Ptr {
			return true
		}
	}
	return false
}

// NewPlan compiles the saving/restoring plan for t on machine m.
// Plans are usually obtained through a TI table, which caches them.
func NewPlan(t *Type, m *arch.Machine) *Plan {
	ops := compilePlan(t, m)
	return &Plan{
		Type:       t,
		Mach:       m,
		Ops:        ops,
		ElemSize:   t.SizeOf(m),
		NumScalars: t.ScalarCount(),
		HasPtr:     planHasPtr(ops),
	}
}
