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
	// not go back through the layout cache.
	ElemSize int

	// NumScalars is the total scalar count covered (machine-independent).
	NumScalars int
	// HasPtr records whether any operation is a pointer run.
	HasPtr bool
	// WireMin is the fewest wire bytes one element can encode to (a
	// pointer counts its 4-byte null form): what a restore holds a declared
	// element count against before it allocates.
	WireMin int

	// ordAt[off] is the ordinal of the scalar covering byte off of one
	// element (-1 in padding) and offAt[k] the byte offset of scalar k:
	// the geometry pointer translation asks for once per pointer. Both are
	// nil for an element past flatGeometry, where the type graph answers.
	ordAt, offAt []int32
}

// flatGeometry bounds the element size, in bytes, up to which a plan
// carries its geometry as tables; double a[768][768] as one element would
// otherwise materialise 590k entries nothing is likely to ask about.
const flatGeometry = 4096

// OffsetToOrdinal is Type.OffsetToOrdinal on the plan's machine, answered
// from the plan's own tables without the type graph's recursion and lock.
func (p *Plan) OffsetToOrdinal(off int) (int, bool) {
	switch {
	case off == p.ElemSize:
		return p.NumScalars, true
	case off < 0 || off > p.ElemSize:
		return 0, false
	case p.ordAt == nil:
		return p.Type.OffsetToOrdinal(p.Mach, off)
	}
	ord := p.ordAt[off]
	return max(int(ord), 0), ord >= 0
}

// OrdinalToOffset is Type.OrdinalToOffset on the plan's machine; like it,
// it panics on an ordinal outside [0, NumScalars].
func (p *Plan) OrdinalToOffset(ordinal int) int {
	switch {
	case ordinal == p.NumScalars:
		return p.ElemSize
	case p.offAt == nil || ordinal < 0 || ordinal > p.NumScalars:
		return p.Type.OrdinalToOffset(p.Mach, ordinal)
	}
	return int(p.offAt[ordinal])
}

// EachRun calls f for every scalar run of ops in plan order — the order the
// scalars take on the wire — with the base address the run's Off counts
// from. Repetitions are unrolled, so f sees runs only (Sub == nil). It is
// the one interpreter of a plan's structure: saving, restoring, scanning for
// pointers and laying out geometry differ only in what they do with a run.
func EachRun[A ~int | ~uint64](ops []PlanOp, base A, f func(op *PlanOp, base A) error) error {
	for i := range ops {
		op := &ops[i]
		if op.Sub == nil {
			if err := f(op, base); err != nil {
				return err
			}
			continue
		}
		for j := 0; j < op.Count; j++ {
			if err := EachRun(op.Sub, base+A(op.Off+j*op.Stride), f); err != nil {
				return err
			}
		}
	}
	return nil
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

// NewPlan compiles the saving/restoring plan for t on machine m. Plans
// are usually obtained through Type.Plan, which caches them.
func NewPlan(t *Type, m *arch.Machine) *Plan {
	ops := compilePlan(t, m)
	p := &Plan{
		Type:       t,
		Mach:       m,
		Ops:        ops,
		ElemSize:   t.SizeOf(m),
		NumScalars: t.ScalarCount(),
		HasPtr:     planHasPtr(ops),
	}
	EachRun(ops, 0, func(op *PlanOp, _ int) error {
		if op.Kind == arch.Ptr {
			p.WireMin += 4 * op.Count
		} else {
			p.WireMin += WireSize(op.Kind) * op.Count
		}
		return nil
	})
	if p.ElemSize <= flatGeometry {
		p.ordAt = make([]int32, p.ElemSize)
		for i := range p.ordAt {
			p.ordAt[i] = -1
		}
		p.offAt = make([]int32, p.NumScalars)
		next := int32(0)
		EachRun(ops, 0, func(op *PlanOp, base int) error {
			for i := 0; i < op.Count; i, next = i+1, next+1 {
				off := base + op.Off + i*op.Stride
				p.offAt[next] = int32(off)
				for j := off; j < off+op.Stride; j++ {
					p.ordAt[j] = next
				}
			}
			return nil
		})
	}
	return p
}

// Plan returns the compiled saving/restoring plan for t on machine m,
// compiling it on first use — the paper's "memory block saving and
// restoring function" generation step. A plan depends on nothing but the
// type and the machine, so it is cached on the type; a cached plan is
// reached with one atomic load and no lock, which is what lets the
// collector ask once per memory block.
func (t *Type) Plan(m *arch.Machine) *Plan {
	if ps := t.plans.Load(); ps != nil {
		for _, p := range *ps {
			if p.Mach == m {
				return p
			}
		}
	}
	p := NewPlan(t, m) // may take lazyMu itself, so compiled before it is held
	lazyMu.Lock()
	defer lazyMu.Unlock()
	if ps := t.plans.Load(); ps != nil {
		for _, q := range *ps {
			if q.Mach == m {
				return q // another goroutine published first
			}
		}
	}
	return *publish(&t.plans, p)
}
