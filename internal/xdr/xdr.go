// Package xdr implements the subset of Sun's External Data Representation
// (RFC 1014 / RFC 1832) used as the machine-independent wire format for
// primitive values.
//
// The paper's layer-2 routines translate primitive data values of a specific
// architecture into a machine-independent format; this package is that
// layer, written from scratch on the standard library. All quantities are
// encoded big-endian and padded to a multiple of four bytes, exactly as XDR
// specifies, so a stream produced on a little-endian source decodes
// identically on a big-endian destination.
package xdr

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// ErrShortBuffer is returned when a decode runs past the end of the stream.
var ErrShortBuffer = errors.New("xdr: unexpected end of stream")

// ErrLength is returned when a decoded length prefix is implausible
// (negative or beyond the remaining stream).
var ErrLength = errors.New("xdr: invalid length")

// Encoder appends XDR-encoded values to an internal buffer.
// The zero value is ready to use.
//
// An encoder can optionally stream: SetSink attaches a function that
// receives completed prefixes of the stream whenever the buffer passes a
// threshold, so a producer (the MSRM collector) overlaps encoding with
// transmission instead of materializing the whole stream first.
type Encoder struct {
	buf []byte

	// sink, when non-nil, receives completed prefixes of the stream.
	sink          func([]byte) error
	sinkThreshold int
	sinkErr       error
	// flushed counts bytes already handed to the sink.
	flushed int
	// calls counts Put/Grow operations, the encoder's observability
	// counter. A plain int incremented on the grow path: the owner of the
	// encoder flushes it to a metrics registry in bulk, so the hot path
	// never touches an atomic.
	calls int
}

// NewEncoder returns an encoder whose buffer has the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// encPools recycles encoders (and, through them, their grown buffers)
// across captures, one pool per power-of-two buffer size: class c holds
// buffers of capacity in [2^c, 2^(c+1)). Buffers reach steady-state
// capacity after the first few uses, so the hot path stops allocating.
// Without the classes a capture that needs one multi-megabyte section
// buffer and two tiny ones draws them in whatever order the pool hands
// back, and re-makes (and re-zeroes) the large one whenever it drew a
// small one.
//
// A sync.Pool is emptied by the garbage collector, and a migration makes
// enough garbage that two collections often fall between two captures; so
// each class also keeps one encoder in encKept, where the collector leaves
// it. What stays resident is bounded by the largest capture the process
// has made (one buffer per class, the classes doubling).
var (
	encPools [bits.UintSize]sync.Pool
	encKept  [bits.UintSize]atomic.Pointer[Encoder]
)

// GetEncoder returns a pooled encoder whose buffer has at least the given
// capacity. The encoder is reset and has no sink.
//
// Ownership contract: every slice obtained from a pooled encoder —
// Bytes(), Grow() reservations, and slices handed to a sink — aliases the
// encoder's internal buffer and dies at Release. A caller that needs the
// encoded stream beyond Release must copy it first.
func GetEncoder(capacity int) *Encoder {
	// The smallest class whose every buffer is large enough.
	class := bits.Len(uint(max(capacity, 1) - 1))
	if e := encKept[class].Swap(nil); e != nil {
		return e
	}
	if e, ok := encPools[class].Get().(*Encoder); ok {
		return e
	}
	return &Encoder{buf: make([]byte, 0, 1<<class)}
}

// Release resets the encoder and returns it to the pool, retaining its
// buffer capacity for the next GetEncoder. The caller must not touch the
// encoder, or any slice it handed out, after Release.
func (e *Encoder) Release() {
	e.sink = nil
	e.sinkThreshold = 0
	e.Reset()
	if c := cap(e.buf); c > 0 {
		class := bits.Len(uint(c)) - 1
		if !encKept[class].CompareAndSwap(nil, e) {
			encPools[class].Put(e)
		}
	}
}

// SetSink attaches fn to receive completed prefixes of the encoded stream.
// Whenever a Put begins with at least threshold buffered bytes, the buffer
// is passed to fn and reset; the slice is only valid for the duration of
// the call. Call FlushSink after the last Put to deliver the tail. Once fn
// returns an error the sink is abandoned: further completed prefixes are
// discarded (keeping memory bounded) and the error is reported by
// FlushSink and SinkErr.
func (e *Encoder) SetSink(threshold int, fn func([]byte) error) {
	if threshold <= 0 {
		threshold = 32 * 1024
	}
	e.sink = fn
	e.sinkThreshold = threshold
}

// SinkErr returns the first error returned by the sink, if any.
func (e *Encoder) SinkErr() error { return e.sinkErr }

// FlushSink delivers any buffered tail to the sink and returns the first
// sink error. It is a no-op on an encoder without a sink.
func (e *Encoder) FlushSink() error {
	if e.sink != nil && len(e.buf) > 0 {
		e.emit()
	}
	return e.sinkErr
}

// emit hands the current buffer to the sink and resets it. Bytes handed
// over after a sink error are dropped so a dead sink does not grow the
// buffer without bound.
func (e *Encoder) emit() {
	if e.sinkErr == nil {
		if err := e.sink(e.buf); err != nil {
			e.sinkErr = err
		}
	}
	e.flushed += len(e.buf)
	e.buf = e.buf[:0]
}

// Bytes returns the encoded stream not yet handed to a sink. The slice
// aliases the encoder's internal buffer and is valid until the next Put
// call. For an encoder without a sink this is the whole stream.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the total number of encoded bytes, including any already
// delivered to a sink.
func (e *Encoder) Len() int { return e.flushed + len(e.buf) }

// Reset discards the encoded stream, retaining the buffer and sink.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	e.flushed = 0
	e.sinkErr = nil
	e.calls = 0
}

// Calls returns the number of encode operations (Put/Grow calls) performed
// since creation or Reset — the call counter the obs layer aggregates.
func (e *Encoder) Calls() int { return e.calls }

func (e *Encoder) grow(n int) []byte {
	e.calls++
	// All bytes currently buffered were filled by completed Put/Grow calls
	// (a Grow caller fills its slice before the next encoder call), so the
	// prefix is complete and may be streamed out before appending.
	if e.sink != nil && len(e.buf) >= e.sinkThreshold {
		e.emit()
	}
	l := len(e.buf)
	if l+n <= cap(e.buf) {
		e.buf = e.buf[:l+n]
	} else {
		nb := make([]byte, l+n, (l+n)*2)
		copy(nb, e.buf)
		e.buf = nb
	}
	return e.buf[l : l+n]
}

// PutUint32 encodes a 32-bit unsigned integer.
func (e *Encoder) PutUint32(v uint32) {
	b := e.grow(4)
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

// PutInt32 encodes a 32-bit signed integer.
func (e *Encoder) PutInt32(v int32) { e.PutUint32(uint32(v)) }

// Put2Uint32 encodes two 32-bit unsigned integers in one slab write —
// one grow instead of two, for fixed small records on the hot path.
func (e *Encoder) Put2Uint32(a, b uint32) {
	s := e.grow(8)
	s[0] = byte(a >> 24)
	s[1] = byte(a >> 16)
	s[2] = byte(a >> 8)
	s[3] = byte(a)
	s[4] = byte(b >> 24)
	s[5] = byte(b >> 16)
	s[6] = byte(b >> 8)
	s[7] = byte(b)
}

// Put4Uint32 encodes four 32-bit unsigned integers in one slab write.
// This is the shape of a pointer reference (segment, major, minor,
// ordinal) and of a section-directory entry, the two records the
// collector emits thousands of per capture; batching them collapses four
// grow calls into one.
func (e *Encoder) Put4Uint32(a, b, c, d uint32) {
	s := e.grow(16)
	s[0] = byte(a >> 24)
	s[1] = byte(a >> 16)
	s[2] = byte(a >> 8)
	s[3] = byte(a)
	s[4] = byte(b >> 24)
	s[5] = byte(b >> 16)
	s[6] = byte(b >> 8)
	s[7] = byte(b)
	s[8] = byte(c >> 24)
	s[9] = byte(c >> 16)
	s[10] = byte(c >> 8)
	s[11] = byte(c)
	s[12] = byte(d >> 24)
	s[13] = byte(d >> 16)
	s[14] = byte(d >> 8)
	s[15] = byte(d)
}

// PutUint32s encodes a slice of 32-bit unsigned integers without a length
// prefix (an XDR fixed-length array), in sink-threshold segments like
// PutFloat64s so large arrays still stream incrementally.
func (e *Encoder) PutUint32s(vs []uint32) {
	for len(vs) > 0 {
		seg := len(vs)
		if e.sink != nil {
			if max := e.sinkThreshold / 4; max >= 1 && seg > max {
				seg = max
			}
		}
		b := e.grow(4 * seg)
		for i, v := range vs[:seg] {
			off := 4 * i
			b[off+0] = byte(v >> 24)
			b[off+1] = byte(v >> 16)
			b[off+2] = byte(v >> 8)
			b[off+3] = byte(v)
		}
		vs = vs[seg:]
	}
}

// PutUint64 encodes a 64-bit unsigned integer (XDR unsigned hyper).
func (e *Encoder) PutUint64(v uint64) {
	b := e.grow(8)
	b[0] = byte(v >> 56)
	b[1] = byte(v >> 48)
	b[2] = byte(v >> 40)
	b[3] = byte(v >> 32)
	b[4] = byte(v >> 24)
	b[5] = byte(v >> 16)
	b[6] = byte(v >> 8)
	b[7] = byte(v)
}

// PutInt64 encodes a 64-bit signed integer (XDR hyper).
func (e *Encoder) PutInt64(v int64) { e.PutUint64(uint64(v)) }

// PutBool encodes a boolean as an XDR enum with values 0 and 1.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutUint32(1)
	} else {
		e.PutUint32(0)
	}
}

// PutFloat32 encodes an IEEE 754 single-precision value.
func (e *Encoder) PutFloat32(v float32) { e.PutUint32(math.Float32bits(v)) }

// PutFloat64 encodes an IEEE 754 double-precision value.
func (e *Encoder) PutFloat64(v float64) { e.PutUint64(math.Float64bits(v)) }

// PutFixedOpaque encodes fixed-length opaque data: the bytes followed by
// zero padding to a four-byte boundary. The decoder must know the length.
// With a sink attached the block is appended in threshold-sized segments,
// so even one block much larger than the chunk size streams out
// incrementally; the encoded bytes are identical either way.
func (e *Encoder) PutFixedOpaque(p []byte) {
	total := (len(p) + 3) &^ 3
	off := 0
	for off < total {
		seg := total - off
		if e.sink != nil && e.sinkThreshold >= 4 && seg > e.sinkThreshold {
			seg = e.sinkThreshold &^ 3
		}
		b := e.grow(seg)
		var m int
		if off < len(p) {
			m = copy(b, p[off:])
		}
		for i := m; i < seg; i++ {
			b[i] = 0
		}
		off += seg
	}
}

// WriteRaw appends fixed-length opaque data like PutFixedOpaque, but when
// a sink is attached the caller's bytes are handed to the sink directly —
// the zero-copy framing path: a section body built in its own encoder
// reaches the chunk writer without an intermediate copy into this
// encoder's buffer. The encoded stream is byte-identical either way.
//
// Ownership: the sink receives p (in threshold-sized segments) under the
// standard sink contract — valid only for the duration of the call, never
// retained. Without a sink the bytes are copied, so the caller keeps
// ownership of p in every case.
func (e *Encoder) WriteRaw(p []byte) {
	if e.sink == nil {
		e.PutFixedOpaque(p)
		return
	}
	// Flush the buffered prefix first so the raw bytes splice into the
	// stream in order.
	if len(e.buf) > 0 {
		e.emit()
	}
	th := e.sinkThreshold
	if th < 4 {
		th = 32 * 1024
	}
	for off := 0; off < len(p); off += th {
		end := off + th
		if end > len(p) {
			end = len(p)
		}
		e.calls++
		if e.sinkErr == nil {
			if err := e.sink(p[off:end]); err != nil {
				e.sinkErr = err
			}
		}
		e.flushed += end - off
	}
	if pad := (4 - len(p)&3) & 3; pad > 0 {
		b := e.grow(pad)
		for i := range b {
			b[i] = 0
		}
	}
}

// PutOpaque encodes variable-length opaque data: a length prefix followed
// by the bytes and padding.
func (e *Encoder) PutOpaque(p []byte) {
	e.PutUint32(uint32(len(p)))
	e.PutFixedOpaque(p)
}

// PutString encodes a string as XDR variable-length opaque data.
func (e *Encoder) PutString(s string) {
	e.PutUint32(uint32(len(s)))
	n := (len(s) + 3) &^ 3
	b := e.grow(n)
	copy(b, s)
	for i := len(s); i < n; i++ {
		b[i] = 0
	}
}

// PutFloat64s encodes a slice of doubles without a length prefix
// (an XDR fixed-length array). This is the hot path when collecting
// large numeric blocks such as the linpack matrices. With a sink attached
// the array is appended in threshold-sized segments so it streams out
// incrementally; the encoded bytes are identical either way.
func (e *Encoder) PutFloat64s(vs []float64) {
	for len(vs) > 0 {
		seg := len(vs)
		if e.sink != nil {
			if max := e.sinkThreshold / 8; max >= 1 && seg > max {
				seg = max
			}
		}
		b := e.grow(8 * seg)
		for i, v := range vs[:seg] {
			bits := math.Float64bits(v)
			off := 8 * i
			b[off+0] = byte(bits >> 56)
			b[off+1] = byte(bits >> 48)
			b[off+2] = byte(bits >> 40)
			b[off+3] = byte(bits >> 32)
			b[off+4] = byte(bits >> 24)
			b[off+5] = byte(bits >> 16)
			b[off+6] = byte(bits >> 8)
			b[off+7] = byte(bits)
		}
		vs = vs[seg:]
	}
}

// Grow exposes raw append space of exactly n bytes for callers that encode
// runs of scalars directly (the type-specific saving functions). The
// caller must fill all n bytes and keep the stream four-byte aligned.
func (e *Encoder) Grow(n int) []byte { return e.grow(n) }

// SegmentHint returns the sink flush threshold when a sink is attached, or
// 0 without one. Callers reserving large runs through Grow should bound
// each reservation by this value so the stream keeps flushing; a single
// oversized reservation cannot be delivered until it is completely filled.
func (e *Encoder) SegmentHint() int {
	if e.sink == nil {
		return 0
	}
	return e.sinkThreshold
}

// Decoder reads XDR-encoded values from a byte slice.
type Decoder struct {
	buf []byte
	off int
	// calls counts decode operations (take calls); like Encoder.calls it
	// is a plain int the owner flushes to a registry in bulk.
	calls int
}

// NewDecoder returns a decoder reading from p. The decoder does not copy p.
func NewDecoder(p []byte) *Decoder { return &Decoder{buf: p} }

// Offset returns the number of bytes consumed so far.
func (d *Decoder) Offset() int { return d.off }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Calls returns the number of decode operations performed so far — the
// call counter the obs layer aggregates.
func (d *Decoder) Calls() int { return d.calls }

// take consumes n bytes from the stream.
func (d *Decoder) take(n int) ([]byte, error) {
	d.calls++
	if n < 0 || d.off+n > len(d.buf) {
		return nil, ErrShortBuffer
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), nil
}

// Int32 decodes a 32-bit signed integer.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint32x3 decodes three 32-bit unsigned integers in one take — the tail
// of a non-null pointer reference after its segment word.
func (d *Decoder) Uint32x3() (a, b, c uint32, err error) {
	s, err := d.take(12)
	if err != nil {
		return 0, 0, 0, err
	}
	a = uint32(s[0])<<24 | uint32(s[1])<<16 | uint32(s[2])<<8 | uint32(s[3])
	b = uint32(s[4])<<24 | uint32(s[5])<<16 | uint32(s[6])<<8 | uint32(s[7])
	c = uint32(s[8])<<24 | uint32(s[9])<<16 | uint32(s[10])<<8 | uint32(s[11])
	return a, b, c, nil
}

// Uint32x4 decodes four 32-bit unsigned integers in one take — the shape
// of a section-directory entry.
func (d *Decoder) Uint32x4() (a, b, c, e uint32, err error) {
	s, err := d.take(16)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	a = uint32(s[0])<<24 | uint32(s[1])<<16 | uint32(s[2])<<8 | uint32(s[3])
	b = uint32(s[4])<<24 | uint32(s[5])<<16 | uint32(s[6])<<8 | uint32(s[7])
	c = uint32(s[8])<<24 | uint32(s[9])<<16 | uint32(s[10])<<8 | uint32(s[11])
	e = uint32(s[12])<<24 | uint32(s[13])<<16 | uint32(s[14])<<8 | uint32(s[15])
	return a, b, c, e, nil
}

// Uint64 decodes a 64-bit unsigned integer.
func (d *Decoder) Uint64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7]), nil
}

// Int64 decodes a 64-bit signed integer.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Bool decodes an XDR boolean. Any nonzero value is an error, matching the
// strictness of the XDR specification for enums.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, fmt.Errorf("xdr: invalid boolean value %d", v)
}

// Float32 decodes an IEEE 754 single-precision value.
func (d *Decoder) Float32() (float32, error) {
	v, err := d.Uint32()
	return math.Float32frombits(v), err
}

// Float64 decodes an IEEE 754 double-precision value.
func (d *Decoder) Float64() (float64, error) {
	v, err := d.Uint64()
	return math.Float64frombits(v), err
}

// FixedOpaque decodes n bytes of fixed-length opaque data, consuming the
// padding. The returned slice aliases the stream.
func (d *Decoder) FixedOpaque(n int) ([]byte, error) {
	padded := (n + 3) &^ 3
	b, err := d.take(padded)
	if err != nil {
		return nil, err
	}
	return b[:n], nil
}

// Opaque decodes variable-length opaque data.
func (d *Decoder) Opaque() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int(n) > d.Remaining() {
		return nil, ErrLength
	}
	return d.FixedOpaque(int(n))
}

// String decodes an XDR string.
func (d *Decoder) String() (string, error) {
	b, err := d.Opaque()
	return string(b), err
}

// Float64s decodes n doubles encoded as a fixed-length array.
func (d *Decoder) Float64s(n int) ([]float64, error) {
	b, err := d.take(8 * n)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		off := 8 * i
		bits := uint64(b[off+0])<<56 | uint64(b[off+1])<<48 | uint64(b[off+2])<<40 |
			uint64(b[off+3])<<32 | uint64(b[off+4])<<24 | uint64(b[off+5])<<16 |
			uint64(b[off+6])<<8 | uint64(b[off+7])
		out[i] = math.Float64frombits(bits)
	}
	return out, nil
}

// Take exposes n raw stream bytes for callers that decode runs of scalars
// directly (the type-specific restoring functions).
func (d *Decoder) Take(n int) ([]byte, error) { return d.take(n) }
