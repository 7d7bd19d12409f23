package collect

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/types"
	"repro/internal/xdr"
)

// The run codecs: one non-pointer scalar run of a plan, converted between
// the machine's bytes and the canonical wire form as a single pass over
// the whole span. A scalar run is always packed (types.PlanOp), and its
// conversion class was fixed when the plan was compiled, so neither side
// looks at a scalar's kind, width or the machine's byte order per element.

// encodeRun writes one plan op's worth of non-pointer scalars in wire
// form and returns the byte count. It is shared by the monolithic Saver
// and the sectioned encoders; it reads memory and the plan only, so
// concurrent encoders may run it against the same space as long as each
// has its own encoder.
func encodeRun(enc *xdr.Encoder, space *memory.Space, op types.PlanOp, base memory.Address) (int, error) {
	size, ws := op.Stride, types.WireSize(op.Kind)
	// One bounds check for the whole span.
	src, err := space.Bytes(base+memory.Address(op.Off), size*op.Count)
	if err != nil {
		return 0, err
	}
	out := enc.Grow(ws * op.Count)
	switch op.Conv {
	case types.ConvLong32, types.ConvULong32:
		widen32(out, src, space.Machine().Order == arch.LittleEndian, op.Conv == types.ConvLong32)
	default:
		reorder(out, src, op.Conv)
	}
	return len(out), nil
}

// decodeRun is encodeRun's inverse, shared by the monolithic Restorer
// and the sectioned restorers. A run whose wire form spans pieces of a fed
// decoder is converted piece by piece, straight out of each.
func decodeRun(dec *xdr.Decoder, space *memory.Space, op types.PlanOp, base memory.Address) (int, error) {
	size, ws := op.Stride, types.WireSize(op.Kind)
	dst, err := space.Bytes(base+memory.Address(op.Off), size*op.Count)
	if err != nil {
		return 0, err
	}
	for left := ws * op.Count; left > 0; {
		in, err := dec.TakeRun(left, ws)
		if err != nil {
			return 0, fmt.Errorf("%w: truncated scalar run", ErrCorruptStream)
		}
		n := len(in) / ws * size
		switch op.Conv {
		case types.ConvLong32, types.ConvULong32:
			narrow32(dst[:n], in, space.Machine().Order == arch.LittleEndian)
		default:
			reorder(dst[:n], in, op.Conv)
		}
		dst, left = dst[n:], left-len(in)
	}
	return ws * op.Count, nil
}

// reorder copies src to dst reversing the bytes of every scalar of the
// class's width — the same pass whether it saves little-endian memory to
// the big-endian wire or restores the other way. The fixed-width loads
// and stores compile to a move and a byte swap; the narrow widths go
// eight bytes at a time.
func reorder(dst, src []byte, conv types.Conv) {
	be, le := binary.BigEndian, binary.LittleEndian
	switch conv {
	case types.ConvCopy:
		copy(dst, src)
	case types.ConvSwap16:
		const lo = 0x00ff00ff00ff00ff
		for ; len(src) >= 8 && len(dst) >= 8; src, dst = src[8:], dst[8:] {
			v := le.Uint64(src)
			le.PutUint64(dst, v&lo<<8|v>>8&lo)
		}
		for ; len(src) >= 2 && len(dst) >= 2; src, dst = src[2:], dst[2:] {
			be.PutUint16(dst, le.Uint16(src))
		}
	case types.ConvSwap32:
		for ; len(src) >= 8 && len(dst) >= 8; src, dst = src[8:], dst[8:] {
			be.PutUint64(dst, bits.RotateLeft64(le.Uint64(src), 32))
		}
		for ; len(src) >= 4 && len(dst) >= 4; src, dst = src[4:], dst[4:] {
			be.PutUint32(dst, le.Uint32(src))
		}
	case types.ConvSwap64:
		for ; len(src) >= 8 && len(dst) >= 8; src, dst = src[8:], dst[8:] {
			be.PutUint64(dst, le.Uint64(src))
		}
	default:
		panic(fmt.Sprintf("collect: scalar run without a conversion class (%d)", conv))
	}
}

// widen32 saves 4-byte longs as 8-byte wire values, sign- or
// zero-extending each.
func widen32(out, src []byte, le, signed bool) {
	for ; len(src) >= 4 && len(out) >= 8; src, out = src[4:], out[8:] {
		v := binary.BigEndian.Uint32(src)
		if le {
			v = binary.LittleEndian.Uint32(src)
		}
		w := uint64(v)
		if signed {
			w = uint64(int64(int32(v)))
		}
		binary.BigEndian.PutUint64(out, w)
	}
}

// narrow32 restores 8-byte wire values into 4-byte longs, keeping the low
// 32 bits (a value that needed more does not fit the destination's long).
func narrow32(dst, in []byte, le bool) {
	for ; len(in) >= 8 && len(dst) >= 4; in, dst = in[8:], dst[4:] {
		v := uint32(binary.BigEndian.Uint64(in))
		if le {
			binary.LittleEndian.PutUint32(dst, v)
		} else {
			binary.BigEndian.PutUint32(dst, v)
		}
	}
}
