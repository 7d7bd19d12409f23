// Package arch describes the computation platforms between which processes
// migrate.
//
// A Machine captures everything about a platform that affects the in-memory
// representation of program data: byte order, word and pointer width, the
// sizes and alignment requirements of the primitive C types, and the rules
// for laying out aggregates. Two machines with different descriptors store
// the same logical value as different bytes; bridging that difference is the
// whole point of the data collection and restoration mechanisms built on top
// of this package.
//
// The registry includes descriptors for the platforms used in the paper's
// evaluation (DEC 5000/120 running Ultrix, SPARCstation 20 and Ultra 5
// running Solaris) plus several common platforms that stress the layout
// engine in additional ways (i386's 4-byte double alignment, LP64 machines).
package arch

import "fmt"

// ByteOrder is the order in which a machine stores the bytes of a
// multi-byte scalar.
type ByteOrder uint8

const (
	// LittleEndian stores the least significant byte first.
	LittleEndian ByteOrder = iota
	// BigEndian stores the most significant byte first.
	BigEndian
)

// String returns the conventional name of the byte order.
func (o ByteOrder) String() string {
	if o == LittleEndian {
		return "little-endian"
	}
	return "big-endian"
}

// PrimKind identifies a primitive scalar type of the source language.
// Pointer is included because a pointer occupies storage like any other
// scalar; its width is machine-dependent.
type PrimKind uint8

const (
	Void PrimKind = iota
	Char
	UChar
	Short
	UShort
	Int
	UInt
	Long
	ULong
	LongLong
	ULongLong
	Float
	Double
	Ptr

	numPrims
)

var primNames = [...]string{
	Void:      "void",
	Char:      "char",
	UChar:     "unsigned char",
	Short:     "short",
	UShort:    "unsigned short",
	Int:       "int",
	UInt:      "unsigned int",
	Long:      "long",
	ULong:     "unsigned long",
	LongLong:  "long long",
	ULongLong: "unsigned long long",
	Float:     "float",
	Double:    "double",
	Ptr:       "pointer",
}

// String returns the C spelling of the primitive kind.
func (k PrimKind) String() string {
	if int(k) < len(primNames) {
		return primNames[k]
	}
	return fmt.Sprintf("prim(%d)", uint8(k))
}

// IsInteger reports whether k is an integer kind (including char).
func (k PrimKind) IsInteger() bool {
	switch k {
	case Char, UChar, Short, UShort, Int, UInt, Long, ULong, LongLong, ULongLong:
		return true
	}
	return false
}

// IsFloat reports whether k is a floating-point kind.
func (k PrimKind) IsFloat() bool { return k == Float || k == Double }

// IsSigned reports whether k is a signed integer kind. Plain char is
// treated as signed, as on the paper's platforms.
func (k PrimKind) IsSigned() bool {
	switch k {
	case Char, Short, Int, Long, LongLong:
		return true
	}
	return false
}

// Machine describes one computation platform. The zero value is not a
// valid machine; use one of the registry variables or NewMachine.
type Machine struct {
	// Name identifies the platform, e.g. "dec5000".
	Name string
	// OS names the operating system for documentation purposes.
	OS string
	// Order is the platform byte order.
	Order ByteOrder
	// WordSize is the natural word width in bytes (4 or 8).
	WordSize int

	size  [numPrims]int
	align [numPrims]int
}

// SizeOf returns the storage size in bytes of the primitive kind.
func (m *Machine) SizeOf(k PrimKind) int { return m.size[k] }

// AlignOf returns the alignment requirement in bytes of the primitive kind.
func (m *Machine) AlignOf(k PrimKind) int { return m.align[k] }

// PtrSize returns the pointer width in bytes.
func (m *Machine) PtrSize() int { return m.size[Ptr] }

// String returns a one-line summary of the machine.
func (m *Machine) String() string {
	return fmt.Sprintf("%s/%s (%s, %d-bit word, %d-byte pointer)",
		m.Name, m.OS, m.Order, m.WordSize*8, m.size[Ptr])
}

// Align rounds off up to the next multiple of align. align must be a
// positive power of two.
func Align(off, align int) int {
	return (off + align - 1) &^ (align - 1)
}

// config bundles the tunable parts of a machine descriptor for NewMachine.
type config struct {
	longSize    int // 4 (ILP32) or 8 (LP64)
	ptrSize     int
	doubleAlign int // 8 on most platforms, 4 on i386
}

// NewMachine builds a machine descriptor from the classic C data model
// parameters. It is exported for tests and for constructing synthetic
// platforms; production code normally uses the registry. It panics unless
// long and pointers are 4 or 8 bytes, the widths the codecs cover.
func NewMachine(name, os string, order ByteOrder, word, longSize, ptrSize, doubleAlign int) *Machine {
	for _, n := range []int{longSize, ptrSize} {
		if n != 4 && n != 8 {
			panic(fmt.Sprintf("arch: machine %s: long and pointer sizes must be 4 or 8, not %d", name, n))
		}
	}
	m := &Machine{Name: name, OS: os, Order: order, WordSize: word}
	c := config{longSize: longSize, ptrSize: ptrSize, doubleAlign: doubleAlign}
	m.size = [numPrims]int{
		Void:      0,
		Char:      1,
		UChar:     1,
		Short:     2,
		UShort:    2,
		Int:       4,
		UInt:      4,
		Long:      c.longSize,
		ULong:     c.longSize,
		LongLong:  8,
		ULongLong: 8,
		Float:     4,
		Double:    8,
		Ptr:       c.ptrSize,
	}
	m.align = m.size
	m.align[Void] = 1
	m.align[Double] = c.doubleAlign
	if c.longSize == 8 {
		m.align[Long] = 8
		m.align[ULong] = 8
	}
	m.align[LongLong] = c.doubleAlign // i386 aligns long long to 4 as well
	m.align[ULongLong] = c.doubleAlign
	return m
}

// Registry of concrete platforms. DEC5000 and SPARC20 are the heterogeneous
// pair of the paper's Section 4.1 experiment; Ultra5 is the homogeneous pair
// of Table 1 and Figure 2.
var (
	// DEC5000 models the DEC 5000/120 (MIPS R3000) running Ultrix:
	// little-endian ILP32.
	DEC5000 = NewMachine("dec5000", "ultrix", LittleEndian, 4, 4, 4, 8)

	// SPARC20 models the SPARCstation 20 running Solaris 2.5:
	// big-endian ILP32.
	SPARC20 = NewMachine("sparc20", "solaris", BigEndian, 4, 4, 4, 8)

	// Ultra5 models the Sun Ultra 5 (UltraSPARC IIi) running Solaris in
	// the common 32-bit ABI.
	Ultra5 = NewMachine("ultra5", "solaris", BigEndian, 4, 4, 4, 8)

	// I386 models a 32-bit x86 Linux machine. Its 4-byte alignment for
	// double and long long produces struct layouts that differ from all
	// other 32-bit platforms, stressing the layout translation.
	I386 = NewMachine("i386", "linux", LittleEndian, 4, 4, 4, 4)

	// AMD64 models a 64-bit x86 Linux machine: little-endian LP64.
	AMD64 = NewMachine("amd64", "linux", LittleEndian, 8, 8, 8, 8)

	// SPARCV9 models a 64-bit UltraSPARC running Solaris: big-endian LP64.
	SPARCV9 = NewMachine("sparcv9", "solaris", BigEndian, 8, 8, 8, 8)

	// Alpha models a DEC Alpha running OSF/1: little-endian LP64, the
	// odd pairing of little-endian order with a big word.
	Alpha = NewMachine("alpha", "osf1", LittleEndian, 8, 8, 8, 8)
)

var registry = []*Machine{DEC5000, SPARC20, Ultra5, I386, AMD64, SPARCV9, Alpha}

// Machines returns the registered platform descriptors.
func Machines() []*Machine {
	out := make([]*Machine, len(registry))
	copy(out, registry)
	return out
}

// Lookup returns the registered machine with the given name, or nil.
func Lookup(name string) *Machine {
	for _, m := range registry {
		if m.Name == name {
			return m
		}
	}
	return nil
}
