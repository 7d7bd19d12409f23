// Package types implements the type system of the migratable language and
// the Type Information (TI) table of the paper.
//
// Every memory block in a process has a type drawn from this package:
// primitive scalars, pointers, fixed-size arrays, and nominal structs
// (including recursive ones, as in linked lists and trees). The layout
// engine computes sizes, alignments, and field offsets for a specific
// machine, so the same type occupies differently shaped storage on the
// source and destination of a migration.
//
// Central to the paper's pointer encoding is the notion of an element
// ordinal: the "offset" half of a machine-independent pointer is the
// ordering number of the scalar data element inside its memory block, not a
// byte offset. Ordinals are machine-independent by construction; this
// package converts between ordinals and machine byte offsets in both
// directions.
package types

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
)

// Kind discriminates the type structure.
type Kind uint8

const (
	// KPrim is a primitive scalar type (int, double, ...).
	KPrim Kind = iota
	// KPointer is a pointer to an element type.
	KPointer
	// KArray is a fixed-length array.
	KArray
	// KStruct is a nominal structure type.
	KStruct
)

// Field is one member of a struct type.
type Field struct {
	Name string
	Type *Type
}

// Type is a node in the type graph. Types are interned: structural types
// built through the constructors are canonical, so pointer equality is type
// equality. Struct types are nominal and unique per declaration.
type Type struct {
	Kind Kind

	// Prim is set for KPrim.
	Prim arch.PrimKind

	// Elem is the pointee for KPointer and the element for KArray.
	Elem *Type

	// Len is the element count for KArray.
	Len int

	// TagName is the struct tag for KStruct.
	TagName string
	// Fields are the struct members; nil until the struct is completed.
	Fields []Field
	// complete records whether a struct definition has been supplied.
	complete bool

	// scalarCount caches the flattened scalar element count (-1 until
	// computed). It is machine-independent. counting marks it in progress,
	// under lazyMu only.
	scalarCount atomic.Int64
	counting    bool

	// layouts and plans are this type's geometry and compiled plans, one
	// per machine asked about. Each slice is replaced under lazyMu, never
	// modified, so a read is one atomic load and no lock.
	layouts atomic.Pointer[[]layout]
	plans   atomic.Pointer[[]*Plan]
}

// layout is the machine-dependent geometry of a type on mach.
type layout struct {
	mach    *arch.Machine
	size    int
	align   int
	offsets []int // field byte offsets for structs
}

// Interning state for structural types. Programs are compiled on
// concurrent goroutines (parallel engines, a daemon registering programs
// while it serves), so every interner goes through internMu.
var (
	internMu sync.Mutex
	prims    [16]*Type
	ptrCache = map[*Type]*Type{}
	arrCache = map[arrKey]*Type{}
)

type arrKey struct {
	elem *Type
	n    int
}

func newType() *Type {
	t := &Type{}
	t.scalarCount.Store(-1)
	return t
}

// Prim returns the canonical type for a primitive kind.
func PrimType(k arch.PrimKind) *Type {
	internMu.Lock()
	defer internMu.Unlock()
	if prims[k] == nil {
		t := newType()
		t.Kind = KPrim
		t.Prim = k
		prims[k] = t
	}
	return prims[k]
}

// Convenience singletons for the common primitives.
var (
	Void   = PrimType(arch.Void)
	Char   = PrimType(arch.Char)
	UChar  = PrimType(arch.UChar)
	Short  = PrimType(arch.Short)
	UShort = PrimType(arch.UShort)
	Int    = PrimType(arch.Int)
	UInt   = PrimType(arch.UInt)
	Long   = PrimType(arch.Long)
	ULong  = PrimType(arch.ULong)
	Float  = PrimType(arch.Float)
	Double = PrimType(arch.Double)
)

// PointerTo returns the canonical pointer-to-elem type.
func PointerTo(elem *Type) *Type {
	internMu.Lock()
	defer internMu.Unlock()
	if t, ok := ptrCache[elem]; ok {
		return t
	}
	t := newType()
	t.Kind = KPointer
	t.Elem = elem
	ptrCache[elem] = t
	return t
}

// ArrayOf returns the canonical n-element array of elem.
func ArrayOf(elem *Type, n int) *Type {
	k := arrKey{elem, n}
	internMu.Lock()
	defer internMu.Unlock()
	if t, ok := arrCache[k]; ok {
		return t
	}
	t := newType()
	t.Kind = KArray
	t.Elem = elem
	t.Len = n
	arrCache[k] = t
	return t
}

// NewStruct creates a new, incomplete nominal struct type with the given
// tag. Complete it with DefineFields. Self-referential types (struct node
// containing struct node *) are built by creating the struct, forming
// pointers to it, then defining the fields.
func NewStruct(tag string) *Type {
	t := newType()
	t.Kind = KStruct
	t.TagName = tag
	return t
}

// DefineFields completes a struct created by NewStruct.
func (t *Type) DefineFields(fields []Field) {
	if t.Kind != KStruct {
		panic("types: DefineFields on non-struct")
	}
	if t.complete {
		panic("types: struct " + t.TagName + " redefined")
	}
	t.Fields = fields
	t.complete = true
}

// Complete reports whether the type is fully defined (relevant for structs).
func (t *Type) Complete() bool {
	if t.Kind == KStruct {
		return t.complete
	}
	return true
}

// IsPointer reports whether t is a pointer type.
func (t *Type) IsPointer() bool { return t.Kind == KPointer }

// IsArithmetic reports whether t is an integer or floating primitive.
func (t *Type) IsArithmetic() bool {
	return t.Kind == KPrim && (t.Prim.IsInteger() || t.Prim.IsFloat())
}

// IsInteger reports whether t is an integer primitive.
func (t *Type) IsInteger() bool { return t.Kind == KPrim && t.Prim.IsInteger() }

// IsFloat reports whether t is a floating primitive.
func (t *Type) IsFloat() bool { return t.Kind == KPrim && t.Prim.IsFloat() }

// IsVoid reports whether t is void.
func (t *Type) IsVoid() bool { return t.Kind == KPrim && t.Prim == arch.Void }

// String returns a C-like spelling of the type.
func (t *Type) String() string {
	switch t.Kind {
	case KPrim:
		return t.Prim.String()
	case KPointer:
		return t.Elem.String() + "*"
	case KArray:
		return fmt.Sprintf("%s[%d]", t.Elem.String(), t.Len)
	case KStruct:
		return "struct " + t.TagName
	}
	return "?"
}

// Signature returns a canonical structural signature used for the TI table
// digest. Struct references use the tag name, so recursive types terminate.
func (t *Type) Signature() string {
	switch t.Kind {
	case KPrim:
		return t.Prim.String()
	case KPointer:
		return "*" + t.Elem.Signature()
	case KArray:
		return fmt.Sprintf("[%d]%s", t.Len, t.Elem.Signature())
	case KStruct:
		return "struct:" + t.TagName
	}
	return "?"
}

// Definition returns the one-level definition string of the type: for a
// struct, its tag plus field names and signatures. The TI digest combines
// definitions so that two programs agree on a type only if its full shape
// agrees.
func (t *Type) Definition() string {
	if t.Kind != KStruct {
		return t.Signature()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "struct %s{", t.TagName)
	for _, f := range t.Fields {
		fmt.Fprintf(&b, "%s %s;", f.Name, f.Type.Signature())
	}
	b.WriteByte('}')
	return b.String()
}

// FieldIndex returns the index of the named field, or -1.
func (t *Type) FieldIndex(name string) int {
	for i, f := range t.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// lazyMu serializes the computation of the per-Type lazy caches
// (scalarCount, layouts, plans). Types are interned and shared by every
// process compiled from a program, and processes may run on concurrent
// goroutines (sched clusters, streamed migrations), so the memoization
// must be synchronized. A computed value is published once, whole, with
// an atomic store, so reading it takes no lock; the lock is held across
// the whole recursive computation, so the in-progress recursion marker
// is never observable from another goroutine.
var lazyMu sync.Mutex

// cachedLayout returns t's published geometry on m, or nil.
func (t *Type) cachedLayout(m *arch.Machine) *layout {
	if ls := t.layouts.Load(); ls != nil {
		for i := range *ls {
			if (*ls)[i].mach == m {
				return &(*ls)[i]
			}
		}
	}
	return nil
}

// layoutFor returns the machine-dependent geometry, computing it first if
// no goroutine has.
func (t *Type) layoutFor(m *arch.Machine) *layout {
	if l := t.cachedLayout(m); l != nil {
		return l
	}
	lazyMu.Lock()
	defer lazyMu.Unlock()
	return t.layoutLocked(m)
}

func (t *Type) layoutLocked(m *arch.Machine) *layout {
	if l := t.cachedLayout(m); l != nil {
		return l
	}
	var l layout
	switch t.Kind {
	case KPrim:
		l = layout{size: m.SizeOf(t.Prim), align: m.AlignOf(t.Prim)}
		if t.Prim == arch.Void {
			l = layout{size: 0, align: 1}
		}
	case KPointer:
		l = layout{size: m.PtrSize(), align: m.AlignOf(arch.Ptr)}
	case KArray:
		el := t.Elem.layoutLocked(m)
		l = layout{size: el.size * t.Len, align: el.align}
	case KStruct:
		if !t.complete {
			panic("types: layout of incomplete struct " + t.TagName)
		}
		off := 0
		align := 1
		l.offsets = make([]int, len(t.Fields))
		for i, f := range t.Fields {
			fl := f.Type.layoutLocked(m)
			off = arch.Align(off, fl.align)
			l.offsets[i] = off
			off += fl.size
			if fl.align > align {
				align = fl.align
			}
		}
		l.size = arch.Align(off, align)
		l.align = align
	}
	l.mach = m
	return publish(&t.layouts, l)
}

// publish appends v to the copy-on-write list behind list; the caller
// holds lazyMu. A reader keeps the list it loaded, unchanged, and a later
// load sees v. It returns v's place in the new list.
func publish[T any](list *atomic.Pointer[[]T], v T) *T {
	var have []T
	if ls := list.Load(); ls != nil {
		have = *ls
	}
	grown := append(have[:len(have):len(have)], v)
	list.Store(&grown)
	return &grown[len(have)]
}

// SizeOf returns the storage size of the type on machine m.
func (t *Type) SizeOf(m *arch.Machine) int { return t.layoutFor(m).size }

// AlignOf returns the alignment of the type on machine m.
func (t *Type) AlignOf(m *arch.Machine) int { return t.layoutFor(m).align }

// OffsetOf returns the byte offset of field i on machine m.
func (t *Type) OffsetOf(m *arch.Machine, i int) int {
	if t.Kind != KStruct {
		panic("types: OffsetOf on non-struct")
	}
	return t.layoutFor(m).offsets[i]
}

// ScalarCount returns the number of scalar data elements in the flattened
// type: 1 for primitives and pointers, the sum over members for aggregates.
// It is machine-independent, making it the unit of the paper's
// machine-independent pointer offsets.
func (t *Type) ScalarCount() int {
	if n := t.scalarCount.Load(); n >= 0 {
		return int(n)
	}
	return t.countScalars()
}

// countScalars is ScalarCount's slow path, apart so that the fast one
// inlines.
func (t *Type) countScalars() int {
	lazyMu.Lock()
	defer lazyMu.Unlock()
	return t.scalarCountLocked()
}

func (t *Type) scalarCountLocked() int {
	if n := t.scalarCount.Load(); n >= 0 {
		return int(n)
	}
	// Guard against recursion on (illegal) directly self-containing
	// structs: one in progress counts 0; the checker rejects such types
	// before layout anyway.
	if t.counting {
		return 0
	}
	t.counting = true
	n := 0
	switch t.Kind {
	case KPrim:
		if t.Prim == arch.Void {
			n = 0
		} else {
			n = 1
		}
	case KPointer:
		n = 1
	case KArray:
		n = t.Len * t.Elem.scalarCountLocked()
	case KStruct:
		for _, f := range t.Fields {
			n += f.Type.scalarCountLocked()
		}
	}
	t.counting = false
	t.scalarCount.Store(int64(n))
	return n
}

// ScalarType returns the type of the ordinal-th scalar element of t.
// It is machine-independent.
func (t *Type) ScalarType(ordinal int) *Type {
	switch t.Kind {
	case KPrim, KPointer:
		if ordinal != 0 {
			panic(fmt.Sprintf("types: scalar ordinal %d out of range in %s", ordinal, t))
		}
		return t
	case KArray:
		per := t.Elem.ScalarCount()
		return t.Elem.ScalarType(ordinal % per)
	case KStruct:
		for _, f := range t.Fields {
			n := f.Type.ScalarCount()
			if ordinal < n {
				return f.Type.ScalarType(ordinal)
			}
			ordinal -= n
		}
	}
	panic(fmt.Sprintf("types: scalar ordinal out of range in %s", t))
}

// OrdinalToOffset converts a scalar ordinal within t to the byte offset of
// that scalar on machine m. As a special case, ordinal == ScalarCount()
// maps to SizeOf(m): a one-past-the-end pointer, which C programs form
// legally.
func (t *Type) OrdinalToOffset(m *arch.Machine, ordinal int) int {
	if ordinal == t.ScalarCount() {
		return t.SizeOf(m)
	}
	switch t.Kind {
	case KPrim, KPointer:
		if ordinal == 0 {
			return 0
		}
	case KArray:
		per := t.Elem.ScalarCount()
		if per > 0 && ordinal < t.Len*per {
			i, rest := ordinal/per, ordinal%per
			return i*t.Elem.SizeOf(m) + t.Elem.OrdinalToOffset(m, rest)
		}
	case KStruct:
		for fi, f := range t.Fields {
			n := f.Type.ScalarCount()
			if ordinal < n {
				return t.OffsetOf(m, fi) + f.Type.OrdinalToOffset(m, ordinal)
			}
			ordinal -= n
		}
	}
	panic(fmt.Sprintf("types: ordinal %d out of range in %s", ordinal, t))
}

// OffsetToOrdinal converts a byte offset within t on machine m to the
// ordinal of the scalar containing (or starting at) that offset. A byte
// offset equal to SizeOf(m) maps to ScalarCount() (one past the end).
// The second result is false if the offset does not fall on or inside a
// scalar element (for example, inside struct padding).
func (t *Type) OffsetToOrdinal(m *arch.Machine, off int) (int, bool) {
	if off == t.SizeOf(m) {
		return t.ScalarCount(), true
	}
	if off < 0 || off > t.SizeOf(m) {
		return 0, false
	}
	switch t.Kind {
	case KPrim, KPointer:
		// Any interior offset belongs to this scalar; pointers into the
		// middle of a scalar are not meaningful but resolve to it.
		return 0, true
	case KArray:
		es := t.Elem.SizeOf(m)
		if es == 0 {
			return 0, false
		}
		i := off / es
		if i >= t.Len {
			return 0, false
		}
		rest, ok := t.Elem.OffsetToOrdinal(m, off-i*es)
		return i*t.Elem.ScalarCount() + rest, ok
	case KStruct:
		l := t.layoutFor(m)
		base := 0
		for fi := len(t.Fields) - 1; fi >= 0; fi-- {
			if off >= l.offsets[fi] {
				fl := t.Fields[fi].Type
				if off >= l.offsets[fi]+fl.SizeOf(m) {
					return 0, false // padding after field fi
				}
				rest, ok := fl.OffsetToOrdinal(m, off-l.offsets[fi])
				if !ok {
					return 0, false
				}
				for j := 0; j < fi; j++ {
					base += t.Fields[j].Type.ScalarCount()
				}
				return base + rest, true
			}
		}
		return 0, false
	}
	return 0, false
}

// HasPointer reports whether the type contains any pointer scalar. Blocks
// of pointer-free types can be saved with plain XDR translation, as the
// paper notes; pointer-bearing blocks need the Save_pointer machinery.
func (t *Type) HasPointer() bool {
	switch t.Kind {
	case KPointer:
		return true
	case KArray:
		return t.Elem.HasPointer()
	case KStruct:
		for _, f := range t.Fields {
			if f.Type.HasPointer() {
				return true
			}
		}
	}
	return false
}
