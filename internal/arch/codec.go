package arch

import "encoding/binary"

// This file implements the machine-specific scalar codecs: reading and
// writing integer and floating-point values as the raw bytes a given
// platform would hold in memory. All simulated platforms use two's
// complement integers and IEEE 754 floating point (as did every platform in
// the paper's evaluation); they differ in byte order and width.

// PutPrim stores a scalar of kind k into b using the machine
// representation. Integer kinds take v as the two's-complement bit
// pattern (sign-extension is the caller's concern when narrowing); Float
// and Double interpret v as IEEE 754 bits of the corresponding width;
// Ptr takes the address value.
func (m *Machine) PutPrim(b []byte, k PrimKind, v uint64) { m.Store(k)(b, v) }

// Prim loads a scalar of kind k from b, returning its canonical 64-bit
// representation: sign-extended for signed integers, zero-extended for
// unsigned integers and pointers, raw IEEE bits (32-bit pattern for Float)
// for floating kinds.
func (m *Machine) Prim(b []byte, k PrimKind) uint64 { return m.Load(k)(b) }

// Load returns the decoder of a scalar of kind k on m, the one Prim
// uses, with the width, byte order and signedness chosen once, here,
// instead of on every read.
func (m *Machine) Load(k PrimKind) func(b []byte) uint64 {
	signed := 0
	if k.IsSigned() {
		signed = 1
	}
	return loaders[m.Order][m.size[k]][signed]
}

// Store returns the encoder of a scalar of kind k on m, the one PutPrim
// uses, with the width and byte order chosen once.
func (m *Machine) Store(k PrimKind) func(b []byte, v uint64) {
	return storers[m.Order][m.size[k]]
}

// loaders[order][size][signed] and storers[order][size] are the scalar
// codecs of every width a primitive kind has: the one place this package
// encodes a value of such a width.
var loaders = [2][9][2]func([]byte) uint64{
	LittleEndian: {
		1: {func(b []byte) uint64 { return uint64(b[0]) }, func(b []byte) uint64 { return uint64(int8(b[0])) }},
		2: {func(b []byte) uint64 { return uint64(binary.LittleEndian.Uint16(b)) },
			func(b []byte) uint64 { return uint64(int16(binary.LittleEndian.Uint16(b))) }},
		4: {func(b []byte) uint64 { return uint64(binary.LittleEndian.Uint32(b)) },
			func(b []byte) uint64 { return uint64(int32(binary.LittleEndian.Uint32(b))) }},
		8: {binary.LittleEndian.Uint64, binary.LittleEndian.Uint64},
	},
	BigEndian: {
		1: {func(b []byte) uint64 { return uint64(b[0]) }, func(b []byte) uint64 { return uint64(int8(b[0])) }},
		2: {func(b []byte) uint64 { return uint64(binary.BigEndian.Uint16(b)) },
			func(b []byte) uint64 { return uint64(int16(binary.BigEndian.Uint16(b))) }},
		4: {func(b []byte) uint64 { return uint64(binary.BigEndian.Uint32(b)) },
			func(b []byte) uint64 { return uint64(int32(binary.BigEndian.Uint32(b))) }},
		8: {binary.BigEndian.Uint64, binary.BigEndian.Uint64},
	},
}

var storers = [2][9]func([]byte, uint64){
	LittleEndian: {
		1: func(b []byte, v uint64) { b[0] = byte(v) },
		2: func(b []byte, v uint64) { binary.LittleEndian.PutUint16(b, uint16(v)) },
		4: func(b []byte, v uint64) { binary.LittleEndian.PutUint32(b, uint32(v)) },
		8: binary.LittleEndian.PutUint64,
	},
	BigEndian: {
		1: func(b []byte, v uint64) { b[0] = byte(v) },
		2: func(b []byte, v uint64) { binary.BigEndian.PutUint16(b, uint16(v)) },
		4: func(b []byte, v uint64) { binary.BigEndian.PutUint32(b, uint32(v)) },
		8: binary.BigEndian.PutUint64,
	},
}
