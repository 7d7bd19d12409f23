package arch

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file implements the machine-specific scalar codecs: reading and
// writing integer and floating-point values as the raw bytes a given
// platform would hold in memory. All simulated platforms use two's
// complement integers and IEEE 754 floating point (as did every platform in
// the paper's evaluation); they differ in byte order and width.

// PutUint writes the low size bytes of v into b in the machine's byte
// order. It panics if b is shorter than size or size is not in 1..8.
// The widths C scalars actually have take one fixed-width store; the byte
// loop covers the odd sizes.
func (m *Machine) PutUint(b []byte, v uint64, size int) {
	le := m.Order == LittleEndian
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		if le {
			binary.LittleEndian.PutUint16(b, uint16(v))
		} else {
			binary.BigEndian.PutUint16(b, uint16(v))
		}
	case 4:
		if le {
			binary.LittleEndian.PutUint32(b, uint32(v))
		} else {
			binary.BigEndian.PutUint32(b, uint32(v))
		}
	case 8:
		if le {
			binary.LittleEndian.PutUint64(b, v)
		} else {
			binary.BigEndian.PutUint64(b, v)
		}
	default:
		m.putUintBytes(b, v, size)
	}
}

func (m *Machine) putUintBytes(b []byte, v uint64, size int) {
	if size < 1 || size > 8 {
		panic(fmt.Sprintf("arch: bad scalar size %d", size))
	}
	_ = b[size-1]
	if m.Order == LittleEndian {
		for i := 0; i < size; i++ {
			b[i] = byte(v >> (8 * i))
		}
		return
	}
	for i := 0; i < size; i++ {
		b[size-1-i] = byte(v >> (8 * i))
	}
}

// Uint reads size bytes from b in the machine's byte order and returns
// them zero-extended to 64 bits.
func (m *Machine) Uint(b []byte, size int) uint64 {
	le := m.Order == LittleEndian
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		if le {
			return uint64(binary.LittleEndian.Uint16(b))
		}
		return uint64(binary.BigEndian.Uint16(b))
	case 4:
		if le {
			return uint64(binary.LittleEndian.Uint32(b))
		}
		return uint64(binary.BigEndian.Uint32(b))
	case 8:
		if le {
			return binary.LittleEndian.Uint64(b)
		}
		return binary.BigEndian.Uint64(b)
	}
	return m.uintBytes(b, size)
}

func (m *Machine) uintBytes(b []byte, size int) uint64 {
	if size < 1 || size > 8 {
		panic(fmt.Sprintf("arch: bad scalar size %d", size))
	}
	_ = b[size-1]
	var v uint64
	if m.Order == LittleEndian {
		for i := size - 1; i >= 0; i-- {
			v = v<<8 | uint64(b[i])
		}
		return v
	}
	for i := 0; i < size; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// PutInt writes v into b as a size-byte two's-complement integer in the
// machine's byte order.
func (m *Machine) PutInt(b []byte, v int64, size int) {
	m.PutUint(b, uint64(v), size)
}

// Int reads a size-byte two's-complement integer from b, sign-extending
// it to 64 bits.
func (m *Machine) Int(b []byte, size int) int64 {
	v := m.Uint(b, size)
	shift := uint(64 - 8*size)
	return int64(v<<shift) >> shift
}

// PutFloat32 writes f into b as the machine's 4-byte float representation.
func (m *Machine) PutFloat32(b []byte, f float32) {
	m.PutUint(b, uint64(math.Float32bits(f)), 4)
}

// Float32 reads a 4-byte float from b.
func (m *Machine) Float32(b []byte) float32 {
	return math.Float32frombits(uint32(m.Uint(b, 4)))
}

// PutFloat64 writes f into b as the machine's 8-byte double representation.
func (m *Machine) PutFloat64(b []byte, f float64) {
	m.PutUint(b, math.Float64bits(f), 8)
}

// Float64 reads an 8-byte double from b.
func (m *Machine) Float64(b []byte) float64 {
	return math.Float64frombits(m.Uint(b, 8))
}

// PutPrim stores a scalar of kind k into b using the machine
// representation. Integer kinds take v as the two's-complement bit
// pattern (sign-extension is the caller's concern when narrowing); Float
// and Double interpret v as IEEE 754 bits of the corresponding width;
// Ptr takes the address value.
func (m *Machine) PutPrim(b []byte, k PrimKind, v uint64) {
	switch k {
	case Float:
		m.PutUint(b, v&0xffffffff, 4)
	default:
		m.PutUint(b, v, m.size[k])
	}
}

// Prim loads a scalar of kind k from b, returning its canonical 64-bit
// representation: sign-extended for signed integers, zero-extended for
// unsigned integers and pointers, raw IEEE bits (32-bit pattern for Float)
// for floating kinds.
func (m *Machine) Prim(b []byte, k PrimKind) uint64 {
	switch {
	case k.IsSigned():
		return uint64(m.Int(b, m.size[k]))
	default:
		return m.Uint(b, m.size[k])
	}
}
